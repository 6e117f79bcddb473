"""Worker pool binding cached architectures to fresh numeric data.

A *solve job* takes a frozen
:class:`~repro.serving.arch_cache.ArchArtifact` plus one concrete
problem instance, constructs a simulated accelerator around the cached
customization and compiled program (host scaling, rho selection, HBM
download — no search, no scheduling, no compilation), optionally warm
starts, and runs. The fleet's calibration runs use it, and tests use it
as the fresh-bind oracle. Serving keeps that accelerator between solves
in a :class:`Resident` and only refreshes its numbers; a
:class:`BatchResident` does the same for a batched machine of one lane
count.

Execution modes:

``thread`` (default)
    A :class:`~concurrent.futures.ThreadPoolExecutor`; numpy kernels
    release the GIL, so concurrent simulated solves overlap well.
``serial``
    Run the job in the caller immediately and return an
    already-resolved future: deterministic, used by the tests.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from ..batch import LANE_DEADLINE, LANE_FAULT
from ..exceptions import DeadlineExceededError
from ..hw import accelerator_class
from ..hw.accelerator import RSQPResult
from ..qp import QProblem
from ..solver import OSQPSettings
from .arch_cache import ArchArtifact

__all__ = ["WorkerPool", "Resident", "BatchResident", "bind_accelerator",
           "solve_job", "reference_job"]

_MODES = ("thread", "serial")


def solve_job(problem: QProblem, artifact: ArchArtifact,
              settings: OSQPSettings,
              warm_start: tuple | None = None,
              pcg_eps: float = 1e-7,
              backend: str = "compiled",
              verify: bool = True,
              injector=None,
              recovery=None,
              deadline_seconds: float | None = None) -> RSQPResult:
    """Bind a cached artifact to ``problem`` and run the accelerator.

    The injected compiled program is validated against the problem
    inside the accelerator — a structure mismatch (wrong artifact for
    this problem) raises rather than silently mis-costing. ``backend``
    selects the program execution backend (``"interpret"`` or
    ``"compiled"``), orthogonal to the artifact's precompiled
    *program*.

    With ``verify`` (default), the artifact passes the static
    verification suite (:mod:`repro.verify`) before any solve touches
    it; a malformed artifact raises
    :class:`~repro.exceptions.VerificationError` with the full
    diagnostic report. Acceptance is memoized on the artifact, so
    repeated solves against a cached artifact check once.

    ``injector`` / ``recovery`` / ``deadline_seconds`` arm fault
    injection, checkpoint/rollback recovery and a cooperative per-job
    deadline on the accelerator (see :mod:`repro.faults`); the
    deadline raises :class:`~repro.exceptions.DeadlineExceededError`
    between ADMM segments rather than killing the worker.
    """
    if verify:
        from ..verify import ensure_artifact_verified
        ensure_artifact_verified(
            artifact, context=f"solve_job({artifact.fingerprint.key})")
    accelerator = bind_accelerator(
        problem, artifact, settings, pcg_eps, backend,
        fault_injector=injector, recovery=recovery,
        deadline_seconds=deadline_seconds)
    if warm_start is not None:
        x0, y0 = warm_start
        accelerator.warm_start(x=x0, y=y0)
    return accelerator.run()


def bind_accelerator(problem: QProblem, artifact: ArchArtifact,
                     settings: OSQPSettings, pcg_eps: float = 1e-7,
                     backend: str = "compiled", **arm):
    """Construct the artifact's accelerator around ``problem``'s numbers.

    The artifact-level verification (memoized) subsumes the
    accelerator's per-construction program walk, so that is skipped.
    ``arm`` passes ``fault_injector`` / ``recovery`` /
    ``deadline_seconds`` through.
    """
    return accelerator_class(getattr(artifact, "algorithm", "admm")).bind(
        problem, artifact.customization, settings, artifact.compiled,
        pcg_eps=pcg_eps, max_pcg_iter=artifact.max_pcg_iter,
        backend=backend, verify=False, **arm)


class Resident:
    """A bound accelerator kept between solves (see ``docs/SERVING.md``).

    Leased from, and returned to, the
    :class:`~repro.serving.arch_cache.ArchCache` entry of the
    ``artifact`` it was built from. ``spoiled`` names why it must not
    serve again (``"fault"`` or ``"deadline"``), or is None.
    """

    __slots__ = ("accelerator", "artifact", "spoiled")

    #: Pool key next to the artifact: None for a solo machine, the lane
    #: count for a :class:`BatchResident`.
    width: int | None = None

    def __init__(self, accelerator, artifact: ArchArtifact):
        self.accelerator = accelerator
        self.artifact = artifact
        self.spoiled: str | None = None

    def run(self, warm_start=None, injector=None,
            deadline_seconds: float | None = None) -> RSQPResult:
        """One attempt on the loaded machine, armed for this call only.

        Accounting restarts at zero and the result carries its own copy
        of the stats, so the run is the one a fresh accelerator makes.
        An attempt that raised, or fired faults, spoils the machine.
        """
        accelerator = self.accelerator
        machine = accelerator.machine
        machine.reset_stats()
        if warm_start is not None:
            x0, y0 = warm_start
            accelerator.warm_start(x=x0, y=y0)
        accelerator.fault_injector = machine.injector = injector
        accelerator.deadline_seconds = deadline_seconds
        try:
            raw = accelerator.run()
        except DeadlineExceededError:
            self.spoiled = "deadline"
            raise
        except BaseException:
            self.spoiled = "fault"
            raise
        finally:
            accelerator.fault_injector = machine.injector = None
            accelerator.deadline_seconds = None
        if raw.fault_events or raw.rollbacks:
            self.spoiled = "fault"
        raw.stats = raw.stats.copy()
        return raw


class BatchResident(Resident):
    """A bound :class:`~repro.batch.BatchAccelerator` kept between
    batch groups. Its lane count B is baked into the buffers and the
    generated C, so it only serves groups of exactly B lanes."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return self.accelerator.batch

    def run(self):
        """One batched run of the loaded lanes. A run that raised, or
        froze a lane (fault or deadline), spoils the machine."""
        try:
            result = self.accelerator.run()
        except BaseException:
            self.spoiled = LANE_FAULT
            raise
        for reason in (LANE_FAULT, LANE_DEADLINE):
            if reason in result.lane_errors:
                self.spoiled = reason
                break
        return result


def reference_job(problem: QProblem, settings: OSQPSettings,
                  warm_start: tuple | None = None,
                  algorithm: str = "admm"):
    """Software fallback: solve with the named reference implementation."""
    from ..solver.algorithms import get_algorithm
    algo = get_algorithm(algorithm)
    solver = algo.solver_type(problem, algo.coerce_settings(settings))
    if warm_start is not None:
        x0, y0 = warm_start
        solver.warm_start(x=x0, y=y0)
    return solver.solve()


class WorkerPool:
    """Uniform submit interface over serial/thread execution."""

    def __init__(self, workers: int = 2, mode: str = "thread"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.mode = mode
        self.workers = int(workers)
        self._closed = False
        if mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="rsqp-serving")
        else:
            self._executor = None

    def submit(self, fn, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; serial mode runs it now."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._executor is not None:
            return self._executor.submit(fn, *args, **kwargs)
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # propagate via the future contract
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        """Stop accepting work and (optionally) wait; idempotent.

        ``cancel_pending`` cancels every queued-but-not-started job so
        its future resolves as *cancelled* instead of leaking forever
        unresolved — the hard-shutdown path. Jobs already running are
        never interrupted; with ``wait`` they are still joined.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait,
                                    cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
