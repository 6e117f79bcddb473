"""Pre-execution verification of batched lockstep solves.

A batched run binds ONE cached artifact to B problem instances, so the
static guard splits in two: the artifact's own passes run once per
batch (memoized on the artifact, exactly like the solo path — see
:func:`ensure_artifact_verified`), and a cheap per-lane compatibility
pass checks that every instance really shares the structure the
artifact was customized for. A lane with a different sparsity pattern
would silently execute the wrong SpMV schedule for its data; the
fingerprint check rejects the batch before any cycle is simulated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .artifact import ensure_artifact_verified, verify_artifact
from .diagnostics import Location, VerificationReport

if TYPE_CHECKING:  # runtime imports would be circular via repro.serving
    from ..qp.problem import QProblem
    from ..serving.arch_cache import ArchArtifact
    from ..serving.fingerprint import StructureFingerprint

__all__ = ["verify_batch", "ensure_batch_verified"]


def _lane_report(artifact: "ArchArtifact", problems: Sequence["QProblem"],
                 fingerprints: Sequence["StructureFingerprint"] | None = None
                 ) -> VerificationReport:
    """Per-lane structural compatibility checks (no program passes).

    ``fingerprints`` are the lanes' own, already computed at the
    artifact's width (the serving router's); without them each lane is
    fingerprinted here. Either way every lane's key is compared.
    """
    from ..serving.fingerprint import fingerprint_problem

    if fingerprints is None:
        fingerprints = [fingerprint_problem(problem, c=artifact.c)
                        for problem in problems]
    elif len(fingerprints) != len(problems):
        raise ValueError("one fingerprint per lane is required")
    key = artifact.fingerprint.key
    report = VerificationReport(
        subject=f"batch:{key[:12]}x{len(problems)}")
    report.passes.append("batch-lanes")
    if len(problems) < 1:
        report.error("batch-empty", "a batch needs at least one lane",
                     Location("batch"))
        return report
    for lane, fp in enumerate(fingerprints):
        if fp.key != key:
            report.error(
                "lane-mismatch",
                f"lane {lane} has structure {fp.key[:12]} "
                f"(n={fp.n}, m={fp.m}) but the artifact was built for "
                f"{key[:12]} (n={artifact.fingerprint.n}, "
                f"m={artifact.fingerprint.m})",
                Location("batch", f"lane {lane}"),
                hint="batch only same-fingerprint requests — the "
                     "coalescer groups by fingerprint key for this "
                     "reason")
    return report


def verify_batch(artifact: "ArchArtifact",
                 problems: Sequence["QProblem"]) -> VerificationReport:
    """All passes for a batched bind: artifact passes + lane checks.

    Unlike :func:`ensure_batch_verified` this always re-runs the full
    artifact verification (no memoization) and returns the merged
    report instead of raising.
    """
    report = verify_artifact(artifact)
    report.extend(_lane_report(artifact, problems))
    return report


def ensure_batch_verified(artifact: "ArchArtifact",
                          problems: Sequence["QProblem"], *,
                          context: str = "",
                          fingerprints: Sequence["StructureFingerprint"]
                          | None = None) -> None:
    """Guard one batched solve: artifact passes once (memoized on the
    artifact), lane compatibility every time (the lanes change per
    batch even when the artifact does not). ``fingerprints`` passes
    the lanes' fingerprints when the caller already has them.

    Raises :class:`~repro.exceptions.VerificationError` on rejection.
    """
    ensure_artifact_verified(artifact,
                             context=context or "batch artifact rejected")
    report = _lane_report(artifact, problems, fingerprints)
    report.raise_if_failed(context or "batch lanes rejected")
    if problems and not getattr(artifact, "codegen_verified", False):
        # Codegen pass once per artifact: lift every unit the batched
        # backend would fuse (at this batch width) and prove bounds,
        # write-set and expression equivalence before any lane binds.
        from .codegen import codegen_report_for_artifact

        codegen = codegen_report_for_artifact(artifact, problems[0],
                                              batch=len(problems))
        codegen.raise_if_failed(context or "batch codegen rejected")
        artifact.codegen_verified = True
