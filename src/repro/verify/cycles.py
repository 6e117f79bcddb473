"""Pass 3: static cycle bounds and cost-model cross-checking.

Every RSQP instruction has a state-independent cycle cost (a function
of vector lengths, schedule pack counts and CVB depths only), so a
whole program has computable min/max cycle bounds:

* a straight-line block costs the fixed sum of its instructions;
* a loop's **minimum** is one trip that exits at its first ``Control``
  (the earliest legal exit — everything before the Control, plus the
  Control's own test cycle, did execute);
* a loop's **maximum** is ``max_iter`` full-body trips, with nested
  loops at their own maxima.

The bounds bracket the interpreter's dynamic count for *any* input —
the property the differential tests assert against
:class:`~repro.hw.machine.ExecutionStats` — and
:func:`verify_compiled` additionally recomputes the per-section
analytic costs that ``charge_block``/``estimate_cycles`` rely on,
flagging a :class:`~repro.hw.compiler.CompiledProgram` whose cached
section cycles disagree with its own instruction stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw import accelerator_class
from ..hw.compiler import CompiledProgram, StaticCostContext
from ..hw.isa import Control, Loop, Program
from .diagnostics import Location, VerificationReport

__all__ = ["CycleBounds", "block_bounds", "program_bounds",
           "loop_charge_slots", "verify_compiled"]

def expected_sections(compiled: CompiledProgram) -> tuple:
    """Required section names for a compiled program's algorithm, as
    its accelerator class declares them."""
    return accelerator_class(getattr(compiled, "algorithm",
                                     "admm")).sections


@dataclass(frozen=True)
class CycleBounds:
    """Inclusive static bounds on a block's total cycle count."""

    min_cycles: int
    max_cycles: int

    def contains(self, cycles: int) -> bool:
        return self.min_cycles <= cycles <= self.max_cycles


def block_bounds(items: list, context: StaticCostContext) -> CycleBounds:
    """Min/max cycles of a block (instructions + loop nests)."""
    lo = 0
    hi = 0
    for item in items:
        if isinstance(item, Loop):
            inner = _loop_bounds(item, context)
            lo += inner.min_cycles
            hi += inner.max_cycles
        else:
            cost = int(item.cycles(context))
            lo += cost
            hi += cost
    return CycleBounds(lo, hi)


def _loop_bounds(loop: Loop, context: StaticCostContext) -> CycleBounds:
    if loop.max_iter < 1 or not loop.body:
        return CycleBounds(0, 0)
    full = block_bounds(loop.body, context)
    # Earliest exit: the prefix up to and including the first Control
    # at this level, nested loops at their own minima.
    first_control = next((i for i, it in enumerate(loop.body)
                          if isinstance(it, Control)), None)
    if first_control is None:
        min_trip = full.min_cycles
    else:
        min_trip = block_bounds(loop.body[:first_control + 1],
                                context).min_cycles
    return CycleBounds(min_trip, loop.max_iter * full.max_cycles)


def program_bounds(program: Program,
                   context: StaticCostContext) -> CycleBounds:
    """Static cycle bounds for a whole program under a cost context."""
    return block_bounds(program.instructions, context)


def _section_cost(items: list, context: StaticCostContext) -> int:
    """Fixed cost of a section, skipping nested loops (costed apart) —
    mirrors ``repro.hw.compiler._section_cycles``."""
    return sum(int(item.cycles(context)) for item in items
               if not isinstance(item, Loop))


def loop_charge_slots(items: list, context,
                      _depth: int = 0) -> list:
    """Static charge-slot decomposition of a fused loop body.

    Mirrors exactly how ``repro.hw.compiled._LoopBuilder`` assigns
    ``CT`` charge slots when it fuses a whole loop body into one C
    function: maximal straight-line runs get one slot each (flushed at
    every ``Control``/``Loop`` boundary), a ``Control`` gets its own
    one-cycle slot, and a nested ``Loop`` contributes no slot itself —
    its body's slots follow inline. Returns flat, emission-ordered
    ``(cycles, by_class, n_instructions, depth)`` tuples; the first
    three fields match the builder's charge table entry for the same
    slot, so :mod:`repro.verify.codegen` compares them directly, and
    ``verify_compiled`` reconciles the depth-0 mass against the
    per-section analytic costs.

    ``context`` is any machine-like cost context (a
    :class:`~repro.hw.compiler.StaticCostContext` or a live machine).
    """
    slots: list = []

    def flush(run: list) -> None:
        if not run:
            return
        cycles = 0
        by_class: dict = {}
        for instr in run:
            kind = type(instr).__name__
            c = int(instr.cycles(context))
            cycles += c
            by_class[kind] = by_class.get(kind, 0) + c
        slots.append((cycles, by_class, len(run), _depth))

    run: list = []
    for item in items:
        if isinstance(item, (Loop, Control)):
            flush(run)
            run = []
            if isinstance(item, Control):
                slots.append((int(item.cycles(context)),
                              {"Control": int(item.cycles(context))},
                              1, _depth))
            else:
                slots.extend(loop_charge_slots(item.body, context,
                                               _depth + 1))
        else:
            run.append(item)
    flush(run)
    return slots


def _charged_trip_max(items: list, context) -> int:
    """Max cycles of one body trip, aggregated from the charge-slot
    view (nested loops at ``max_iter`` full trips)."""
    slots = loop_charge_slots(items, context)
    total = sum(c for c, _bc, _n, d in slots if d == 0)
    for item in items:
        if isinstance(item, Loop) and item.max_iter >= 1 and item.body:
            total += item.max_iter * _charged_trip_max(item.body,
                                                      context)
    return total


def _collect_loops(items: list, out: dict) -> None:
    for item in items:
        if isinstance(item, Loop):
            out[item.name] = item
            _collect_loops(item.body, out)


def verify_compiled(compiled: CompiledProgram) -> VerificationReport:
    """Cross-check a compiled program's cached analytic costs.

    Recomputes each section's fixed cycle count from the instruction
    stream and the cost context; a mismatch means ``estimate_cycles``
    (and the compiled backend's ``charge_block`` accounting seeded from
    it) would mis-report performance.
    """
    report = VerificationReport(subject="cycles", passes=["cycles"])
    sections = getattr(compiled, "_sections", None)
    if not sections:
        report.error(
            "missing-sections",
            "compiled program carries no section table; per-section "
            "costs cannot be recomputed",
            Location("cycles"))
        return report
    claimed = dict(getattr(compiled, "section_cycles", None) or {
        "prologue": compiled.prologue_cycles,
        "admm_body": compiled.admm_body_cycles,
        "pcg_body": compiled.pcg_body_cycles,
        "epilogue": compiled.epilogue_cycles,
    })
    for name in expected_sections(compiled):
        if name not in sections:
            report.error(
                "missing-sections",
                f"compiled program's section table lacks {name!r}",
                Location("cycles", name))
            continue
        recomputed = _section_cost(sections[name], compiled.context)
        if recomputed != claimed.get(name, 0):
            report.error(
                "cycle-cost-mismatch",
                f"section {name!r} sums to {recomputed} cycles but the "
                f"compiled program claims {claimed.get(name, 0)}; "
                f"estimate_cycles would be wrong by the difference",
                Location("cycles", name),
                hint="re-run attach_costs after changing the program "
                     "or its cost context")
    _verify_fused_sections(compiled, report, sections, claimed)
    return report


def _verify_fused_sections(compiled: CompiledProgram,
                           report: VerificationReport,
                           sections: dict, claimed: dict) -> None:
    """Reconcile the whole-loop-fused tier's analytic charges.

    The fused tier (``repro.hw.compiled.fuse_loop``) does not charge
    per section — it applies a static charge-slot table per loop body
    trip. Prove that table's decomposition consistent with the
    per-section costs ``estimate_cycles`` uses (depth-0 slot mass ==
    the loop section's claimed cycles) and with the
    :func:`program_bounds` bracket (one full trip, aggregated from the
    charge view, == the body's static ``block_bounds`` maximum). A
    mismatch means the fused backend and the analytic model would
    report different performance for the same solve — the blind spot
    left when whole-loop fusion landed after this pass.
    """
    loops: dict = {}
    _collect_loops(compiled.program.instructions, loops)
    for loop_name, section in sorted(compiled.loop_sections.items()):
        loop = loops.get(loop_name)
        body = sections.get(section)
        if loop is None or body is None:
            continue  # expected_sections already flags missing tables
        slots = loop_charge_slots(loop.body, compiled.context)
        flat = sum(c for c, _bc, _n, d in slots if d == 0)
        if flat != claimed.get(section, 0):
            report.error(
                "fused-cycle-mismatch",
                f"loop {loop_name!r}: fused charge slots sum to {flat} "
                f"cycles per trip at depth 0 but section {section!r} "
                f"claims {claimed.get(section, 0)}; the fused tier and "
                f"estimate_cycles would disagree",
                Location("cycles", f"loop {loop_name}"),
                hint="the charge-slot decomposition must mirror "
                     "_LoopBuilder._flush_run exactly")
        charged = _charged_trip_max(loop.body, compiled.context)
        bracket = block_bounds(loop.body, compiled.context).max_cycles
        if charged != bracket:
            report.error(
                "fused-cycle-mismatch",
                f"loop {loop_name!r}: one full trip aggregates to "
                f"{charged} cycles from the charge-slot view but the "
                f"static bound brackets it at {bracket}",
                Location("cycles", f"loop {loop_name}"),
                hint="a nested loop or Control is charged differently "
                     "by the fused tier than by block_bounds")
        counted = sum(n for _c, _bc, n, _d in slots)
        expected = _count_chargeable(loop.body)
        if counted != expected:
            report.error(
                "fused-cycle-mismatch",
                f"loop {loop_name!r}: charge slots cover {counted} "
                f"instructions but the loop nest holds {expected}; "
                f"some instruction's cost would never be charged",
                Location("cycles", f"loop {loop_name}"))


def _count_chargeable(items: list) -> int:
    total = 0
    for item in items:
        if isinstance(item, Loop):
            total += _count_chargeable(item.body)
        else:
            total += 1
    return total
