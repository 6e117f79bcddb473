"""repro.batch — batched lockstep execution of same-structure QPs.

One compiled instruction stream drives B problem instances in lockstep
over ``(B, n)`` buffers (:mod:`repro.hw.batched`), with per-instance
convergence masking and per-instance cycle accounting
(:mod:`repro.batch.runner`), fed by a deadline-aware coalescing queue
(:mod:`repro.batch.coalescer`). See ``docs/BATCH.md``.
"""

from .coalescer import Coalescer, PendingEntry
from .runner import (LANE_DEADLINE, LANE_FAULT, BatchAccelerator,
                     BatchResult, bind_batch, solve_batch_job)

__all__ = [
    "BatchAccelerator",
    "BatchResult",
    "Coalescer",
    "PendingEntry",
    "LANE_DEADLINE",
    "LANE_FAULT",
    "bind_batch",
    "solve_batch_job",
]
