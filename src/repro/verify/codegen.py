"""Pass 4: static verification of the generated-C (codegen) tier.

The compiled backends generate C at runtime in one tier, ``loop``:
whole fused loop bodies over lane-minor ``(len, B)`` buffers, emitted
by one builder (:class:`repro.hw.compiled._LoopBuilder`) at a batch
machine's lane count, and at one lane for a solo machine. The builder
emits an :class:`~repro.hw.effect_ir.EffectIR` alongside that source —
a per-statement record of effects, whose ``batch`` is the unit's
width — and this pass proves, before a generated kernel ever runs,
five independent properties:

**Equivalence** (``codegen-expression-mismatch`` /
``codegen-kernel-body-drift``)
    Every emitted statement is re-derived from its source ISA
    instruction: the per-element expression must match the closure
    fold table verbatim (no reassociation or FMA-shaped rewrites —
    the source-level half of the ``-ffp-contract=off`` bit-exactness
    contract), operand buffers must be the instruction's operands in
    order, and embedded DOT/SpMV/CLIP kernel bodies must match the
    canonical templates below (each lane accumulating in the
    :mod:`repro.hw.cjit` kernels' sequential order) after table-token
    normalization. A one-lane unit's head must carry the canonical
    ``spmv_grouped`` row kernel, re-derived here in :func:`_preamble`,
    and each of its SpMVs must be the one-line call to it; a wider
    unit's SpMV is the lane-minor CSR walk. A one-lane unit runs each
    group of two or more DOTs as one loop at the group's last member,
    re-derived from the member count in :func:`_dot_group`: one
    accumulator per member from ``+0.0``, the members consecutive DOTs
    of one length in one straight-line run.

**Bounds and aliasing** (``codegen-index-out-of-bounds`` /
``codegen-shape-mismatch`` / ``codegen-alias-hazard``)
    Every loop bound is proven to stay within every operand buffer it
    indexes (including the flattened ``len * B`` and row/lane bounds of
    lane-minor batch buffers), CSR gathers are proven in-bounds from
    the actual ``col``/``indptr`` arrays the kernel will walk, and a
    gather may not write a buffer it reads. A one-lane gather's row
    walk is proven from ``indptr`` too: its row order is a
    permutation of the rows, each run of its run table holds only rows
    of that run's stored length, and its ``ng`` argument is the ``L``
    slot holding the number of runs.

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
    Each unit's ``CT`` charge table must reconcile, slot by
    slot, with the static decomposition
    (:func:`repro.verify.cycles.loop_charge_slots`) of the same loop
    body under the same cost context, and its ``IT`` trip-counter
    table must name the nested loops in emission order.

**Lane masking** (``codegen-lane-mask-missing``)
    At every width the function head declares the lane count ``bt``
    once, as the literal width, and no statement redeclares it. Each
    frame's trip head leaves the frame when its
    active-lane mask (``m{k}``, frame ``k`` being the loop with ``IT``
    slot ``k``) is empty, a nested frame starts as a copy of its
    parent's mask, and a Control clears its firing lanes and leaves
    through its own frame's exit label once none is live. For B >= 2
    every write and DIV/SQRT trap is also guarded by the innermost
    frame's mask: that keeps a frozen lane's columns exactly at their
    exit state without a snapshot. For B = 1 the unit must emit the
    unguarded forms exactly: the exits above make the one lane live
    whenever a statement runs.

Entry points: :func:`ensure_codegen_verified` is the compile-time
guard the builder calls (memoized per IR digest); :func:`lift_units`
lifts every unit the backends would fuse for a compiled program at
given widths *statically* — no C toolchain needed — and
:func:`verify_codegen` verifies them all at widths 1 and ``batch``;
:func:`codegen_report_for_artifact` adapts that to a served
:class:`~repro.serving.arch_cache.ArchArtifact`.
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np

from ..hw.batched import (BatchExecutor, BatchMachine, BatchMatrixResource,
                          static_write_set)
from ..hw.compiled import _LoopBuilder, literal_operand
from ..hw.effect_ir import EFFECT_IR_VERSION, EffectIR, EffectStatement
from ..hw.isa import (Control, DataTransfer, Loop, ScalarOp, ScalarOpKind,
                      SpMV, VecDup, VectorOp, VectorOpKind)
from .cycles import loop_charge_slots
from .diagnostics import Location, VerificationReport
from .program import contract_for_algorithm

__all__ = ["ensure_codegen_verified", "verify_effect_ir", "lift_units",
           "verify_codegen", "codegen_report_for_artifact"]

#: The one generated-C tier this pass proves (its width is
#: :attr:`EffectIR.batch`).
TIERS = ("loop",)

#: Accepted verdicts, memoized per :meth:`EffectIR.digest` — two units
#: with equal digests are verdict-equivalent by construction (the
#: digest covers every field the analyses read). Only successes are
#: cached: a failing unit raises and must keep raising.
_VERIFIED: dict[str, bool] = {}
_VERIFIED_CAP = 4096


# ---------------------------------------------------------------------------
# canonical kernel-body templates (token-normalized)

#: Operand-table tokens (``B[0]``, ``IA[2]``, ``L[1]``, ``S[3]``) are
#: slot-numbered per unit; normalize them to a fixed placeholder so one
#: template matches every unit.
_TOKEN_RE = re.compile(r"\b(?:B|IA|L|S)\[\d+\]")


def _norm(text: str) -> str:
    return _TOKEN_RE.sub("T", text)


# Whole-loop kernels accumulate into a local lane vector of the unit's
# literal width ``bt`` (declared once, in the function head) and copy
# the lanes out; ``{guard}`` is the frame's mask test (empty for one
# lane).
_LOOP_DOT = ("    {{\n"
             "        const double *a = T;\n"
             "        const double *b = T;\n"
             "        double * restrict o = T;\n"
             "        const long n = T;\n"
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
             "            {guard}o[j] = acc[j];\n"
             "    }}\n")

def _dot_group(members: int) -> str:
    """A one-lane DOT group's loop over ``members`` DOTs of one length
    ``n``: member ``k`` reads ``a{k}``/``b{k}``, sums its products into
    its own ``acc{k}`` from ``+0.0``, left to right (``k_dot``'s order),
    and stores it through ``o{k}`` after the loop."""
    ks = range(members)
    return ("    {\n"
            "        const long n = T;\n"
            + "".join(f"        const double *a{k} = T;\n"
                      f"        const double *b{k} = T;\n"
                      f"        double *o{k} = T;\n" for k in ks)
            + "".join(f"        double acc{k} = 0.0;\n" for k in ks)
            + "        for (long i = 0; i < n; ++i) {\n"
            + "".join(f"            acc{k} += a{k}[i] * b{k}[i];\n"
                      for k in ks)
            + "        }\n"
            + "".join(f"        *o{k} = acc{k};\n" for k in ks)
            + "    }\n")


_LOOP_SPMV = ("    {{\n"
              "        const double * restrict v = T;\n"
              "        const long *col = T;\n"
              "        const long *ip = T;\n"
              "        const double * restrict xx = T;\n"
              "        double * restrict yy = T;\n"
              "        const long nrows = T;\n"
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
              "                {guard}yr[j] = acc[j];\n"
              "        }}\n"
              "    }}\n")

#: The one-lane SpMV statement: a call to the unit's row kernel with the
#: values, ``col``, ``ip``, the row order ``ro``, the run table ``rl``,
#: the run count ``ng`` (an ``L`` slot) and the source and destination.
_LOOP_SPMV_CALL = "    spmv_grouped(T, T, T, T, T, T, T, T);\n"

#: The row kernel every one-lane unit carries in its head: each run of
#: equal-length rows walks a ``switch`` arm whose k-loop bound is the
#: literal length (0-8; longer rows take the runtime bound), and every
#: row sums from ``acc = 0.0`` in the ``k_csr_matvec`` order.
_SPMV_GROUPED = (
    "#define SPMV_RUN(n) \\\n"
    "    for (long t = 0; t < cnt; ++t) { \\\n"
    "        const long r = rows[t]; \\\n"
    "        const double *w = v + ip[r]; \\\n"
    "        const long *c = col + ip[r]; \\\n"
    "        double acc = 0.0; \\\n"
    "        for (long k = 0; k < (n); ++k) \\\n"
    "            acc += w[k] * x[c[k]]; \\\n"
    "        y[r] = acc; \\\n"
    "    } \\\n"
    "    break\n"
    "\n"
    "static void spmv_grouped(const double *v, const long *col,\n"
    "                         const long *ip, const long *ro,\n"
    "                         const long *rl, long ng,\n"
    "                         const double *x, double * restrict y)\n"
    "{\n"
    "    for (long g = 0; g < ng; ++g) {\n"
    "        const long len = rl[2 * g];\n"
    "        const long cnt = rl[2 * g + 1];\n"
    "        const long *rows = ro;\n"
    "        ro += cnt;\n"
    "        switch (len) {\n"
    "        case 0: SPMV_RUN(0);\n"
    "        case 1: SPMV_RUN(1);\n"
    "        case 2: SPMV_RUN(2);\n"
    "        case 3: SPMV_RUN(3);\n"
    "        case 4: SPMV_RUN(4);\n"
    "        case 5: SPMV_RUN(5);\n"
    "        case 6: SPMV_RUN(6);\n"
    "        case 7: SPMV_RUN(7);\n"
    "        case 8: SPMV_RUN(8);\n"
    "        default: SPMV_RUN(len);\n"
    "        }\n"
    "    }\n"
    "}\n"
    "#undef SPMV_RUN\n"
    "\n")

#: The whole-loop CLIP statement (np.clip, NaN passthrough).
_LOOP_CLIP = ("{ const double av = a[i]; "
              "const double c = isnan(av) ? av : "
              "(av > lo[i] ? av : lo[i]); "
              "d[i] = isnan(c) ? c : (c < hi[i] ? c : hi[i]); }")


def _trip_head(frame: int) -> str:
    """Frame ``frame``'s trip head: count its live lanes, leave the
    frame when none is live, count the trip."""
    return ("    {\n"
            "        long live = 0;\n"
            "        for (long j = 0; j < bt; ++j) {\n"
            f"            live |= m{frame}[j];\n"
            f"            lt{frame}[j] += m{frame}[j];\n"
            "        }\n"
            f"        if (!live) goto loop_exit_{frame};\n"
            "    }\n"
            f"    IT[{frame}]++;\n")


#: A statement that declares its own lane count (``bt = ...``).
_LANE_COUNT_DECL = re.compile(r"\bbt\s*=(?!=)")


_INCLUDES = "#include <math.h>\n\n"


def _preamble(batch: int, frames: int) -> str:
    """The unit's head up to frame 0's first statement: the one-lane
    row kernel (B = 1 only), then the function head."""
    return (_INCLUDES + (_SPMV_GROUPED if batch == 1 else "") +
            "long loop_run(double **B, long **IA, const long *L,\n"
            "              const double *S, long *M, long *CT,\n"
            "              long *IT, long *LT, long max_iter)\n"
            "{\n"
            "    (void)B; (void)IA; (void)S;\n"
            f"    const long bt = {batch};\n"
            + "".join(f"    long *m{k} = M + {k} * bt;\n"
                      f"    long *lt{k} = LT + {k} * bt;\n"
                      for k in range(frames))
            + "    for (long it0 = 0; it0 < max_iter; ++it0) {\n"
            + _trip_head(0))


def _frame_entry(frame: int, parent: int) -> str:
    """Nested frame ``frame``'s entry (token-normalized): a copy of its
    parent's mask, then its trip loop and trip head."""
    return ("    {\n"
            "    for (long j = 0; j < bt; ++j)\n"
            f"        m{frame}[j] = m{parent}[j];\n"
            f"    const long n_it{frame} = T;\n"
            f"    for (long it{frame} = 0; it{frame} < n_it{frame}; "
            f"++it{frame}) {{\n"
            + _trip_head(frame))


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


def _vector_plan(instr: VectorOp) -> tuple[str, str, list] | None:
    """``(index_kind, expr_template, scalar_operands)`` of the fold
    table; ``{0}``/``{1}`` substitute the emitted scalar tokens."""
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


def _scalar_expr(op: ScalarOpKind, a: str, b: str | None) -> str | None:
    """Expected ScalarOp statement."""
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
_REG_RE = re.compile(r"^s(\d+)\[j\]$")


class _UnitChecker:
    """Check one EffectIR against its source instructions."""

    def __init__(self, ir: EffectIR, instrs: list, machine: Any,
                 report: VerificationReport):
        self.ir = ir
        self.instrs = list(instrs)
        self.machine = machine
        self.report = report
        self.lanes = int(ir.batch)
        # running sreg-pointer and S-constant counters.
        self.sreg_count = 0
        self.const_count = 0
        # nested frames entered so far (frame k has IT slot k).
        self.frames_seen = 0
        # the active-lane mask of the statement's frame.
        self.mask = "m0"
        self.frame = 0
        # the unit's statements and the walk position being checked.
        self.stmts: list = []
        self.pos = 0

    # -- helpers ---------------------------------------------------------
    def _loc(self, stmt: EffectStatement) -> Location:
        return Location(f"codegen[{self.ir.tier}]",
                        f"stmt {stmt.instr_index} ({stmt.op})",
                        stmt.site)

    def _err(self, code: str, stmt: EffectStatement, message: str,
             hint: str = "") -> None:
        self.report.error(code, message, self._loc(stmt), hint)

    def _guarded(self, stmt: str) -> str:
        """``stmt`` as the unit must emit it: behind the frame's mask,
        or bare when the single lane is live whenever it runs."""
        return stmt if self.lanes == 1 else f"if ({self.mask}[j]) {stmt}"

    def _live_and(self, cond: str) -> str:
        return cond if self.lanes == 1 else f"{self.mask}[j] && {cond}"

    def _template(self, template: str) -> str:
        return template.format(
            guard="" if self.lanes == 1 else f"if ({self.mask}[j]) ")

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
        if ir.tier not in TIERS or self.lanes < 1:
            report.error(
                "codegen-shape-mismatch",
                f"unknown effect IR tier {ir.tier!r} at width "
                f"{self.lanes}",
                Location("codegen"))
            return
        entries, loop_meta = _loop_walk(self.instrs)
        if (self.lanes == 1
                and not ir.source.startswith(_INCLUDES + _SPMV_GROUPED)):
            report.error(
                "codegen-kernel-body-drift",
                "the one-lane unit's head does not carry the canonical "
                "spmv_grouped row kernel",
                Location("codegen[loop]"),
                hint="every one-lane SpMV calls that kernel; a drifted "
                     "copy is not the bit-exactness-pinned row sum")
        elif not ir.source.startswith(_preamble(self.lanes,
                                                1 + len(loop_meta))):
            report.error(
                "codegen-lane-mask-missing",
                f"the unit's function head differs from the expected "
                f"width-{self.lanes} lane count, frame tables and "
                f"frame 0 trip head",
                Location("codegen[loop]"),
                hint="each trip must leave its frame when no lane is "
                     "live")
        stmts = self.stmts = list(ir.statements)
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
            self.pos = pos
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
            if _LANE_COUNT_DECL.search(stmt.text):
                self._err(
                    "codegen-lane-mask-missing", stmt,
                    f"statement redeclares the lane count; every lane "
                    f"loop must run over the head's width {self.lanes}")
            self._check_statement(instr, stmt)
            self._check_bounds(stmt)
        self._check_writes()
        self._check_charges(loop_meta)

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
        # registers are (B,) buffers bound as sN pointers.
        match = _REG_RE.match(token)
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

    def _check_masked(self, stmt: EffectStatement, *lines: str) -> None:
        """Every one of ``lines`` must be a whole line of the emitted
        statement: each write, trap and exit in its exact masked form
        (for one lane, its exact bare form)."""
        emitted = {line.strip() for line in stmt.text.splitlines()}
        for line in lines:
            if line not in emitted:
                self._err(
                    "codegen-lane-mask-missing", stmt,
                    f"expected the line {line!r} in the generated "
                    f"statement; lanes outside frame {self.frame}'s "
                    f"mask {self.mask} would be touched",
                    hint="every whole-loop write and trap must test the "
                         "innermost frame's mask (bare for one lane), "
                         "and every exit must leave its own frame")

    def _check_template(self, stmt: EffectStatement,
                        template: str) -> None:
        if _norm(stmt.text) != template:
            self._err(
                "codegen-kernel-body-drift", stmt,
                "embedded kernel body differs from the canonical "
                "template; the generated loop would not be the "
                "bit-exactness-pinned kernel shape")

    def _check_vecdup(self, instr: VecDup, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "flat")
        self._check_dst(stmt, "cvb", instr.cvb)
        self._check_srcs(stmt, (instr.src,))
        self._resolve_operands(stmt, [])
        if stmt.expr != "d[i] = a[i]":
            self._err(
                "codegen-expression-mismatch", stmt,
                f"VecDup must copy verbatim; generated {stmt.expr!r}")
        self._check_masked(stmt, self._guarded("d[i] = a[i];"))

    def _check_elementwise(self, instr: VectorOp,
                           stmt: EffectStatement) -> None:
        plan = _vector_plan(instr)
        if plan is None:
            self._err("codegen-expression-mismatch", stmt,
                      f"vector op {instr.op.value!r} has no whole-loop "
                      f"codegen lowering")
            return
        index_kind, template, scalar_refs = plan
        self._check_index_kind(stmt, index_kind)
        tokens = self._resolve_operands(stmt, scalar_refs)
        if any(t is None for t in tokens):
            return
        expected = template.format(*tokens)
        self._check_dst(stmt, "vb", instr.dst)
        self._check_srcs(stmt, tuple(instr.srcs[:2]))
        if stmt.expr != expected:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"generated expression {stmt.expr!r} differs from the "
                f"ISA fold {expected!r}",
                hint="reassociation/contraction at the source level "
                     "breaks the bit-exactness contract")
        self._check_masked(stmt, self._guarded(f"{expected};"))

    def _check_clip(self, instr: VectorOp, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "flat")
        self._check_dst(stmt, "vb", instr.dst)
        self._check_srcs(stmt, tuple(instr.srcs[:3]))
        self._resolve_operands(stmt, [])
        if stmt.expr != _LOOP_CLIP:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"generated clip {stmt.expr!r} differs from the "
                f"np.clip lowering {_LOOP_CLIP!r}")
        self._check_masked(stmt, self._guarded(f"{_LOOP_CLIP};"))

    def _check_dot(self, instr: VectorOp, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "reduce")
        self._check_srcs(stmt, tuple(instr.srcs[:2]))
        self._resolve_operands(stmt, [])
        if stmt.group:
            if self.lanes == 1:
                self._check_dot_member(instr, stmt)
                return
            self._err("codegen-shape-mismatch", stmt,
                      f"a width-{self.lanes} DOT records the one-lane "
                      f"group {stmt.group}")
        if tuple(stmt.sreg_writes) != ((instr.dst, "o"),):
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"DOT writes {tuple(stmt.sreg_writes)} but must "
                f"accumulate into the {instr.dst!r} register buffer")
        self._check_masked(stmt, self._guarded("o[j] = acc[j];"))
        self._check_template(stmt, self._template(_LOOP_DOT))

    # -- one-lane DOT groups ------------------------------------------------
    def _check_dot_member(self, instr: VectorOp,
                          stmt: EffectStatement) -> None:
        """A one-lane DOT that records a group is member ``k`` of it: it
        writes its register through ``o{k}``, emits nothing at its own
        position unless it is the last member, and the last member
        carries the group's loop (:meth:`_check_dot_group`)."""
        group, stmts, pos = stmt.group, self.stmts, self.pos
        if (pos not in group or list(group) != sorted(set(group))
                or group[0] < 0 or group[-1] >= len(stmts)
                or any(stmts[p].op != "dot" or stmts[p].group != group
                       for p in group)):
            self._err(
                "codegen-shape-mismatch", stmt,
                f"DOT records the group {group}, which is not an "
                f"ascending list of DOTs that each record it and "
                f"include walk position {pos}")
            return
        k = group.index(pos)
        if tuple(stmt.sreg_writes) != ((instr.dst, f"o{k}"),):
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"DOT writes {tuple(stmt.sreg_writes)} but must store "
                f"its accumulator into the {instr.dst!r} register "
                f"through o{k}")
        if pos != group[-1]:
            if stmt.text or stmt.len_slots:
                self._err(
                    "codegen-kernel-body-drift", stmt,
                    f"member {k} of a DOT group emits code at its own "
                    f"position; it runs in the loop at position "
                    f"{group[-1]}")
            return
        self._check_dot_group(stmt, [stmts[p] for p in group])

    def _check_dot_group(self, last: EffectStatement,
                         members: list) -> None:
        """The group's one loop, at its last member: the members are
        consecutive statements of one straight-line run and share one
        length, and each has its own accumulator in the re-derived
        template. Consecutive DOTs write only their own registers and
        read only vectors, so running them in one loop moves no member
        past any other statement."""
        group = last.group
        if (list(group) != list(range(group[0], group[-1] + 1))
                or any(m.charge_slot != last.charge_slot
                       for m in members)):
            self._err(
                "codegen-order-mismatch", last,
                f"DOT group {group} is not a stretch of consecutive "
                f"DOTs of one straight-line run; its loop would run an "
                f"earlier member past the statements between")
        n = last.bound
        if any(m.bound != n for m in members):
            self._err(
                "codegen-shape-mismatch", last,
                f"DOT group {group} joins members of lengths "
                f"{[m.bound for m in members]} in one loop of {n}")
        lines = {line.strip() for line in last.text.splitlines()}
        slots = last.len_slots
        if (len(slots) != 1 or slots[0][1] != n
                or f"const long n = L[{slots[0][0]}];" not in lines):
            self._err(
                "codegen-scalar-slot-mismatch", last,
                f"the group's length {n} must reach its loop through "
                f"the one L slot the statement records; it records "
                f"{slots}")
        for k in range(len(members)):
            if f"acc{k} += a{k}[i] * b{k}[i];" not in lines:
                self._err(
                    "codegen-expression-mismatch", last,
                    f"member {k} of DOT group {group} is not summed "
                    f"into its own accumulator acc{k}")
        self._check_template(last, _dot_group(len(members)))

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
        if self.lanes == 1:
            self._check_template(stmt, _LOOP_SPMV_CALL)
            return
        self._check_masked(stmt, self._guarded("yr[j] = acc[j];"))
        self._check_template(stmt, self._template(_LOOP_SPMV))

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
        expected = _scalar_expr(instr.op, a, b)
        if expected is None:
            self._err("codegen-expression-mismatch", stmt,
                      f"scalar op {instr.op.value!r} has no whole-loop "
                      f"codegen lowering")
            return
        if tuple(stmt.sreg_writes) != ((instr.dst, "d[j]"),):
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"scalar op writes {tuple(stmt.sreg_writes)} but must "
                f"target the {instr.dst!r} register buffer lanes")
        trap = _scalar_trap(instr.op, a, b)
        self._check_masked(stmt, self._guarded(f"{expected};"),
                           *([f"if ({self._live_and(trap[0])}) "
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
        # Every width clears the firing lanes and leaves the frame once
        # none is live: that is what lets one lane drop its guards.
        m = self.mask
        self._check_masked(stmt, f"if ({m}[j] && {expected}) {m}[j] = 0;",
                           f"live |= {m}[j];",
                           f"if (!live) goto loop_exit_{self.frame};")

    def _check_loop_marker(self, instr: Loop, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "loop")
        self._resolve_operands(stmt, [])
        self.frames_seen += 1
        if stmt.bound != int(instr.max_iter):
            self._err(
                "codegen-expression-mismatch", stmt,
                f"nested loop marker records {stmt.bound} trips but "
                f"{instr.name!r} bounds max_iter={instr.max_iter}")
        if _norm(stmt.text) != _frame_entry(self.frames_seen, self.frame):
            self._err(
                "codegen-lane-mask-missing", stmt,
                f"nested frame {self.frames_seen} must start as a copy "
                f"of frame {self.frame}'s mask and leave at a trip "
                f"with no live lane")

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
        batch = self.lanes
        if index == "flat":
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
            if stmt.lane_bound != batch:
                self._err(
                    "codegen-shape-mismatch", stmt,
                    f"reduction runs {stmt.lane_bound} lanes "
                    f"on a batch-{batch} machine")
        elif index == "gather":
            self._check_gather_bounds(stmt)
        elif index == "scalar":
            if stmt.lane_bound != batch:
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
        # One lane walks (col, ip, ro, rl); a wider unit (col, ip).
        arrays = 4 if self.lanes == 1 else 2
        if (stmt.spmv_shape is None or stmt.index_arrays is None
                or len(stmt.index_arrays) != arrays
                or len(stmt.srcs) != 2 or stmt.dst is None):
            self._err("codegen-shape-mismatch", stmt,
                      "gather statement lacks its CSR shape/index "
                      "record; bounds cannot be proven")
            return
        rows = stmt.bound
        mat, src = stmt.srcs
        col, ip = (np.asarray(arr) for arr in stmt.index_arrays[:2])
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
        elif self.lanes == 1:
            self._check_row_runs(stmt, np.diff(ip),
                                 *(np.asarray(arr)
                                   for arr in stmt.index_arrays[2:]))
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

    def _check_row_runs(self, stmt: EffectStatement, lens: np.ndarray,
                        ro: np.ndarray, rl: np.ndarray) -> None:
        """The one-lane row walk, proven from ``ip`` (row ``r`` stores
        ``lens[r]`` entries): ``ro`` is a permutation of the rows, so
        each is written once; run ``g`` of ``rl`` holds rows of its
        stored length, so the literal k-loop reads exactly the row's
        slice of the streams; and the ``ng`` argument is an ``L`` slot
        holding the number of runs."""
        rows = lens.shape[0]
        if ro.ndim != 1 or (ro.size and (int(ro.min()) < 0
                                         or int(ro.max()) >= rows)):
            self._err(
                "codegen-index-out-of-bounds", stmt,
                f"row order names rows outside [0, {rows})")
            return
        if (ro.shape[0] != rows
                or np.any(np.bincount(ro, minlength=rows) != 1)):
            self._err(
                "codegen-shape-mismatch", stmt,
                f"row order is not a permutation of the {rows} rows: "
                f"some row would be written twice and another never")
            return
        if rl.ndim != 1 or rl.shape[0] % 2:
            self._err("codegen-shape-mismatch", stmt,
                      "run table is not a flat list of (length, count) "
                      "pairs")
            return
        run_lens, counts = rl[0::2], rl[1::2]
        covered = int(counts.sum())
        if (counts.size and int(counts.min()) < 0) or covered != rows:
            self._err("codegen-shape-mismatch", stmt,
                      f"runs cover {covered} rows of {rows}")
            return
        if np.any(lens[ro] != np.repeat(run_lens, counts)):
            self._err(
                "codegen-index-out-of-bounds", stmt,
                "a run's length differs from a row's stored length; its "
                "k-loop would read outside that row's slice of the "
                "value/column streams")
        runs = rl.shape[0] // 2
        call = re.search(r"spmv_grouped\((.*)\);", stmt.text)
        args = call.group(1).split(", ") if call else []
        if (len(stmt.len_slots) != 1 or stmt.len_slots[0][1] != runs
                or len(args) != 8
                or args[5] != f"L[{stmt.len_slots[0][0]}]"):
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"the run count must reach the row kernel through the "
                f"one L slot recording it ({runs} runs); the call reads "
                f"{args[5] if len(args) == 8 else '<no call>'} with "
                f"slots {stmt.len_slots}")

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

def _static_resources(compiled: Any, matrices: dict, batch: int) -> dict:
    ctx = compiled.context
    resources: dict = {}
    for name, matrix in matrices.items():
        try:
            costs = ctx.spmv_cycles(name), ctx.cvb_depth(name)
        except KeyError:
            continue
        resources[name] = BatchMatrixResource(name, matrix, *costs, batch)
    return resources


def _seed_hbm(machine: BatchMachine, compiled: Any) -> None:
    ctx = compiled.context
    contract = contract_for_algorithm(getattr(compiled, "algorithm",
                                              "admm"))
    for name in sorted(contract.hbm):
        try:
            length = int(ctx.vector_length(name))
        except KeyError:
            continue
        machine.hbm[name] = np.zeros((length, machine.batch))
    for name in sorted(contract.scalars):
        machine.scalar_buffer(name)


def _prepare_buffers(machine: BatchMachine, items: list) -> None:
    """Program-order walk creating every buffer the builder resolves.

    Mirrors the executors' lazy ``_dst_buffer`` creation so that by
    lift time every operand is 'resident' exactly as it would be when
    the runtime builder binds — same names, same lengths."""

    def vec(name: str) -> int | None:
        for space in (machine.vb, machine.cvb, machine.hbm):
            if name in space:
                return int(space[name].shape[0])
        return None

    def make(space: dict, name: str, length: int) -> None:
        shape = (length, machine.batch)
        buf = space.get(name)
        if not (isinstance(buf, np.ndarray) and buf.shape == shape):
            space[name] = np.zeros(shape)

    for item in items:
        if isinstance(item, Loop):
            _prepare_buffers(machine, item.body)
        elif isinstance(item, DataTransfer):
            length = vec(item.name)
            if length is None:
                continue
            if item.direction == "load":
                make(machine.vb, item.name, length)
            else:
                make(machine.hbm, item.name, length)
        elif isinstance(item, ScalarOp):
            machine.scalar_buffer(item.dst)
            for ref in (item.src1, item.src2):
                if isinstance(ref, str):
                    machine.scalar_buffer(ref)
        elif isinstance(item, VectorOp):
            for ref in (item.alpha, item.beta):
                if isinstance(ref, str):
                    machine.scalar_buffer(ref)
            if item.op is VectorOpKind.DOT:
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


def _loop_units(executor: BatchExecutor, items: list, units: list) -> int:
    """Lift every Loop in ``items``, nested loops included; returns how
    many the builder refuses.

    A loop's first run takes the node path, and a nested loop's node
    fuses on its own before the enclosing loop does, so the runtime can
    build a unit for every loop of the nest: lift them all. A body the
    builder refuses stays on the node path at runtime
    (:meth:`~repro.hw.batched.BatchExecutor._fuse`);
    count it so coverage loss is visible.
    """
    skipped = 0
    for item in items:
        if not isinstance(item, Loop):
            continue
        builder = _LoopBuilder(executor)
        try:
            builder.emit_body_ir(item.body)
        except Exception:
            skipped += 1
        else:
            units.append((builder.effect_ir(), item.body,
                          executor.machine))
        skipped += _loop_units(executor, item.body, units)
    return skipped


def lift_units(compiled: Any, matrices: dict,
               widths: tuple[int, ...] = (1, 2)) -> tuple[list, int]:
    """Statically lift every whole-loop unit of a program at each width.

    ``compiled`` is a :class:`~repro.hw.compiler.CompiledProgram`;
    ``matrices`` maps streamed-matrix names (``P``/``A``/``At``) to
    their :class:`~repro.sparse.csr.CSRMatrix` structures. For each
    width, every loop of the nest is emitted by the runtime's one
    builder against a statically seeded
    :class:`~repro.hw.batched.BatchMachine` of that many lanes (width
    1 is a solo machine's unit), so this needs no C toolchain. Returns
    ``(units, skipped)``: ``(ir, instrs, machine)`` per unit, and the
    number of loops the builder refused (they stay on the node path).
    """
    units: list = []
    skipped = 0
    for width in widths:
        machine = BatchMachine(compiled.context.c,
                               _static_resources(compiled, matrices, width),
                               width)
        _seed_hbm(machine, compiled)
        _prepare_buffers(machine, compiled.program.instructions)
        executor = BatchExecutor(machine, jit=False, verify=False)
        skipped += _loop_units(executor, compiled.program.instructions,
                               units)
    return units, skipped


def verify_codegen(compiled: Any, matrices: dict, *,
                   batch: int = 2) -> VerificationReport:
    """Statically lift and verify every generated-C unit of a program.

    Lifts (:func:`lift_units`) every loop of the nest at width 1 — the
    unit a solo machine and a one-lane batch build — and at ``batch``
    lanes, then verifies each unit.
    """
    report = VerificationReport(
        subject=f"codegen:{getattr(compiled, 'algorithm', 'admm')}",
        passes=["codegen"])
    widths = tuple(sorted({1, int(batch)}))
    units, skipped = lift_units(compiled, matrices, widths)
    counts = dict.fromkeys(widths, 0)
    for ir, instrs, machine in units:
        counts[ir.batch] += 1
        report.extend(verify_effect_ir(ir, instrs, machine))
    per_width = ", ".join(f"{counts[width]} at B={width}"
                          for width in widths)
    report.info(
        "codegen-coverage",
        f"analyzed {len(units)} generated unit(s) of tier loop: "
        f"{per_width}; {skipped} loop(s) stay on the node path",
        Location("codegen"))
    return report


def codegen_report_for_artifact(artifact: Any, problem: Any, *,
                                batch: int = 2) -> VerificationReport:
    """Codegen pass for a served artifact bound to one problem's
    structure (the lanes of a batch share it by fingerprint)."""
    matrices = {"P": problem.P, "A": problem.A,
                "At": problem.A.transpose()}
    return verify_codegen(artifact.compiled, matrices, batch=batch)
