"""Shared diagnostic types for the static verification passes.

Every pass in :mod:`repro.verify` reports problems through the same
vocabulary: a :class:`Diagnostic` pins a *severity*, a stable *code*
(machine-matchable, e.g. ``use-before-def``), a human message, a
:class:`Location` inside the artifact being checked, and an optional
fix hint. Passes accumulate diagnostics into a
:class:`VerificationReport`, which renders them for the CLI and can be
escalated into a :class:`~repro.exceptions.VerificationError` by the
pre-execution guards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..exceptions import VerificationError

__all__ = [
    "Severity",
    "Location",
    "Diagnostic",
    "VerificationReport",
    "DIAGNOSTIC_CODES",
    "diagnostics_table",
]

#: Registry of every stable diagnostic code any pass may emit, with a
#: one-line description. :meth:`VerificationReport.add` refuses codes
#: missing from this table, so a new check cannot ship an unregistered
#: (and undocumented) code — the table in ``docs/VERIFY.md`` is
#: generated from this dict by :func:`diagnostics_table` and a CI test
#: asserts the two never drift.
DIAGNOSTIC_CODES: dict[str, str] = {
    # --- program pass (repro.verify.program) ---
    "use-before-def": "an operand is read before any instruction "
                      "defines it",
    "scalar-arity": "a ScalarOp has the wrong number of operands for "
                    "its opcode",
    "vector-arity": "a VectorOp has the wrong number of sources for "
                    "its opcode",
    "missing-coefficient": "an AXPBY/SCALE_ADD lacks a required "
                           "alpha/beta coefficient",
    "unknown-instruction": "an opcode outside the ISA reached the "
                           "verifier",
    "control-outside-loop": "a Control exit test appears outside any "
                            "Loop body",
    "unknown-cvb-bank": "a VecDup targets a CVB bank the machine does "
                        "not provision",
    "unknown-matrix": "an SpMV names a matrix the machine does not "
                      "hold",
    "spmv-src-not-in-cvb": "an SpMV reads a vector that was never "
                           "duplicated into its CVB bank",
    "bad-transfer-direction": "a DataTransfer direction is not "
                              "load/store",
    "fusion-raw-hazard": "an SpMV reads a CVB bank before the VecDup "
                         "that fills it in the same straight-line run",
    "unreachable-code": "instructions follow an unconditional loop "
                        "exit",
    "empty-loop": "a Loop has no body",
    "no-loop-exit": "a Loop body contains no Control exit test",
    "static-exit-condition": "a Control condition compares registers "
                             "no loop iteration can change",
    # --- schedule/CVB pass (repro.verify.schedule_check) ---
    "width-mismatch": "a schedule row's lane width disagrees with the "
                      "architecture",
    "dictionary-gap": "a sparsity-string codeword is missing from the "
                      "dictionary",
    "lane-overflow": "a scheduled lane index exceeds the architecture "
                     "width",
    "bank-oversubscription": "more vectors are packed into a CVB bank "
                             "than it has room for",
    "slot-overflow": "a pack slot index exceeds the pack capacity",
    "slot-structure-mismatch": "a pack slot's nnz structure disagrees "
                               "with the matrix",
    "coverage-gap": "schedule rows do not cover every matrix row "
                    "exactly once",
    "stream-order": "streamed values are out of schedule order",
    "nnz-mismatch": "scheduled nonzero count disagrees with the "
                    "matrix nnz",
    "negative-padding": "a schedule claims negative padding",
    "request-shape": "a gather request shape disagrees with its "
                     "segment",
    "translation-gap": "a matrix column has no CVB translation entry",
    "depth-undercount": "provisioned CVB depth is too small for the "
                        "packed vectors",
    "over-provisioned-depth": "provisioned CVB depth exceeds what the "
                              "packing needs (info)",
    "eta-mismatch": "recomputed efficiency eta disagrees with the "
                    "artifact's claim",
    "architecture-mismatch": "artifact architecture parameters "
                             "disagree with the schedule",
    # --- cycle pass (repro.verify.cycles) ---
    "missing-sections": "a compiled program lacks the per-section "
                        "cycle table",
    "cycle-cost-mismatch": "a section's claimed cycles fall outside "
                           "the analytic min/max bracket",
    "fused-cycle-mismatch": "a whole-loop-fused section's charge "
                            "table disagrees with the analytic cost "
                            "decomposition",
    # --- artifact/batch binding passes ---
    "context-mismatch": "artifact dimensions disagree with the bound "
                        "problem context",
    "batch-empty": "a batch bind carries zero lanes",
    "lane-mismatch": "a batch lane's structure fingerprint disagrees "
                     "with the artifact",
    # --- codegen pass (repro.verify.codegen) ---
    "codegen-shape-mismatch": "an effect-IR statement's operand "
                              "lengths disagree with the machine "
                              "buffers",
    "codegen-index-out-of-bounds": "a generated loop bound or index "
                                   "array exceeds its buffer length",
    "codegen-alias-hazard": "a generated gather/reduce writes a "
                            "buffer it also reads indirectly",
    "codegen-order-mismatch": "generated statements execute in a "
                              "different order than the source "
                              "instructions",
    "codegen-scalar-slot-mismatch": "a scalar-table slot binds a "
                                    "different register/literal than "
                                    "the emitted token claims",
    "codegen-write-set-miss": "the effect IR writes a buffer missing "
                              "from the static snapshot write-set",
    "codegen-expression-mismatch": "an emitted per-element expression "
                                   "differs from the ISA semantics "
                                   "of its instruction",
    "codegen-kernel-body-drift": "an embedded kernel body differs "
                                 "from the canonical kernel template",
    "codegen-cycle-mismatch": "an effect-IR charge table entry "
                              "disagrees with the static cost model",
    "codegen-lane-mask-missing": "a whole-loop statement writes, traps "
                                 "or exits on lanes outside its "
                                 "frame's active-lane mask, a frame "
                                 "does not leave once no lane is live, "
                                 "or its lane count is not the unit's "
                                 "literal width",
    "codegen-coverage": "summary of generated units the codegen pass "
                        "analyzed (info)",
}


def diagnostics_table() -> str:
    """Render :data:`DIAGNOSTIC_CODES` as a markdown table.

    ``docs/VERIFY.md`` embeds this output between generated-table
    markers; a test regenerates it and fails on drift.
    """
    lines = ["| code | meaning |", "| --- | --- |"]
    for code in sorted(DIAGNOSTIC_CODES):
        desc = " ".join(DIAGNOSTIC_CODES[code].split())
        lines.append(f"| `{code}` | {desc} |")
    return "\n".join(lines) + "\n"


class Severity(enum.IntEnum):
    """How bad a finding is; only ERROR makes a report fail."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where inside an artifact a diagnostic points.

    ``artifact``
        Which artifact the pass was looking at (``"program"``,
        ``"schedule:P"``, ``"cvb:A"``, ``"cycles"`` ...).
    ``path``
        Position within the artifact — an instruction path like
        ``"admm[12].pcg[3]"`` or a pack/slot index like
        ``"pack 7, slot 2"``. Empty when the finding is global.
    ``site``
        Source-location metadata carried by the instruction itself
        (set by :mod:`repro.hw.compiler`), naming the generating
        site rather than just an index.
    """

    artifact: str
    path: str = ""
    site: str | None = None

    def __str__(self) -> str:
        text = self.artifact
        if self.path:
            text += f"@{self.path}"
        if self.site:
            text += f" ({self.site})"
        return text


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a verification pass."""

    severity: Severity
    code: str
    message: str
    location: Location
    hint: str = ""

    def render(self) -> str:
        text = f"{self.severity.label()}[{self.code}] {self.location}: " \
               f"{self.message}"
        if self.hint:
            text += f"\n  hint: {self.hint}"
        return text


@dataclass
class VerificationReport:
    """Accumulated findings of one or more passes over one artifact."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    passes: list[str] = field(default_factory=list)

    def add(self, severity: Severity, code: str, message: str,
            location: Location, hint: str = "") -> Diagnostic:
        if code not in DIAGNOSTIC_CODES:
            raise ValueError(
                f"unregistered diagnostic code {code!r}: add it to "
                "repro.verify.diagnostics.DIAGNOSTIC_CODES (and "
                "regenerate the docs table)")
        diag = Diagnostic(severity, code, message, location, hint)
        self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, location: Location,
              hint: str = "") -> Diagnostic:
        return self.add(Severity.ERROR, code, message, location, hint)

    def warning(self, code: str, message: str, location: Location,
                hint: str = "") -> Diagnostic:
        return self.add(Severity.WARNING, code, message, location, hint)

    def info(self, code: str, message: str, location: Location,
             hint: str = "") -> Diagnostic:
        return self.add(Severity.INFO, code, message, location, hint)

    def extend(self, other: "VerificationReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.passes.extend(p for p in other.passes if p not in self.passes)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were recorded."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def render(self) -> str:
        head = self.subject or "artifact"
        lines = [f"verify {head}: "
                 f"{len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s) "
                 f"[{', '.join(self.passes) or 'no passes'}]"]
        lines.extend(d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def raise_if_failed(self, context: str = "") -> None:
        """Raise :class:`VerificationError` when any ERROR was found."""
        if self.ok:
            return
        first = self.errors[0]
        prefix = f"{context}: " if context else ""
        raise VerificationError(
            f"{prefix}static verification failed with "
            f"{len(self.errors)} error(s); first: {first.render()}",
            report=self)
