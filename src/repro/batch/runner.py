"""Batched lockstep solves: B same-structure QPs as one vectorized run.

:class:`BatchAccelerator` is the one card class (:mod:`repro.hw.card`):
one compiled instruction stream advances B instances in lockstep, with
per-instance convergence masking inside the ADMM / PDHG loops. A solo
accelerator is the same card at width 1 (one host load, one segment
driver), so each lane is its solo run bit for bit. This module binds
cached serving artifacts to it (:func:`bind_batch`,
:func:`solve_batch_job`); the serving layer re-solves a frozen lane
through the solo resilient path.
"""

from __future__ import annotations

from ..hw.card import BatchAccelerator, BatchResult
from ..hw.driver import LANE_DEADLINE, LANE_FAULT
from ..solver import OSQPSettings

__all__ = ["BatchResult", "BatchAccelerator", "bind_batch",
           "solve_batch_job", "LANE_FAULT", "LANE_DEADLINE"]


def solve_batch_job(problems, artifact, settings: OSQPSettings,
                    warm_starts=None, pcg_eps: float = 1e-7,
                    verify: bool = True, injectors=None,
                    deadline_ats=None) -> BatchResult:
    """Bind one cached artifact to B same-structure problems and run.

    The batched analogue of :func:`repro.serving.pool.solve_job`:
    verification runs once per batch artifact
    (:func:`repro.verify.ensure_batch_verified` — memoized static
    program checks plus lane-compatibility guards), and the algorithm
    is dispatched from the artifact exactly like the solo path.
    """
    problems = list(problems)
    if verify:
        from ..verify import ensure_batch_verified
        ensure_batch_verified(artifact, problems)
    return bind_batch(problems, artifact, settings, pcg_eps,
                      warm_starts=warm_starts, injectors=injectors,
                      deadline_ats=deadline_ats).run()


def bind_batch(problems, artifact, settings: OSQPSettings,
               pcg_eps: float = 1e-7, **lanes) -> BatchAccelerator:
    """Construct the artifact's batched machine around ``problems``;
    ``lanes`` passes ``warm_starts`` / ``injectors`` /
    ``deadline_ats`` through."""
    return BatchAccelerator(
        problems, artifact.customization, settings,
        compiled=artifact.compiled,
        algorithm=getattr(artifact, "algorithm", "admm"),
        pcg_eps=pcg_eps, max_pcg_iter=artifact.max_pcg_iter, **lanes)
