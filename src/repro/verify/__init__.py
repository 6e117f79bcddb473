"""Static verification of RSQP artifacts (programs, schedules, CVBs).

Three passes over statically decidable invariants, with a shared
diagnostic vocabulary and pre-execution guard entry points:

* :func:`verify_program` — CFG walk of an ISA program: def-before-use,
  ScalarOp/VectorOp arity, loop-exit reachability, unreachable code,
  and RAW hazards inside the compiled backend's fusion windows;
* :func:`verify_schedule` / :func:`verify_cvb` /
  :func:`verify_customization` — re-derive the pack/lane/bank
  invariants and the E_p/E_c -> eta bookkeeping from the schedule and
  CVB layout alone;
* :func:`program_bounds` / :func:`verify_compiled` — static per-block
  min/max cycle bounds and a cross-check of the compiled program's
  cached analytic section costs, including the whole-loop fused tier's
  CT charge-table decomposition;
* :func:`verify_codegen` / :func:`ensure_codegen_verified` — the
  generated-C tier: lift every unit the compiled backends would fuse
  into effect IR and prove bounds/aliasing, write-set soundness,
  instruction-by-instruction expression equivalence, and cycle-charge
  consistency — statically, with no C toolchain required.

``python -m repro.verify`` runs every pass over compiler-emitted
programs and customizations for the problem suite — the CI gate.
Guards in :class:`~repro.hw.RSQPAccelerator`, the serving cache's
admission of a new artifact, and :func:`~repro.serving.pool.solve_job`
(the fleet's calibration solves) call :func:`ensure_artifact_verified`
so malformed artifacts are rejected with structured diagnostics before
they reach an accelerator.
"""

from .artifact import (ensure_artifact_verified, verify_artifact,
                       verify_compiled_program)
from .batch import ensure_batch_verified, verify_batch
from .codegen import (codegen_report_for_artifact, ensure_codegen_verified,
                      verify_codegen, verify_effect_ir)
from .cycles import (CycleBounds, block_bounds, loop_charge_slots,
                     program_bounds, verify_compiled)
from .diagnostics import (DIAGNOSTIC_CODES, Diagnostic, Location, Severity,
                          VerificationReport, diagnostics_table)
from .program import (ProgramContract, accelerator_contract,
                      contract_for_algorithm, pdqp_contract,
                      verify_program)
from .schedule_check import (verify_customization, verify_cvb,
                             verify_matrix, verify_schedule)

__all__ = [
    "Severity",
    "Location",
    "Diagnostic",
    "VerificationReport",
    "ProgramContract",
    "accelerator_contract",
    "pdqp_contract",
    "contract_for_algorithm",
    "verify_program",
    "verify_schedule",
    "verify_cvb",
    "verify_matrix",
    "verify_customization",
    "CycleBounds",
    "block_bounds",
    "program_bounds",
    "verify_compiled",
    "verify_compiled_program",
    "verify_artifact",
    "ensure_artifact_verified",
    "verify_batch",
    "ensure_batch_verified",
    "verify_effect_ir",
    "verify_codegen",
    "ensure_codegen_verified",
    "codegen_report_for_artifact",
    "loop_charge_slots",
    "DIAGNOSTIC_CODES",
    "diagnostics_table",
]
