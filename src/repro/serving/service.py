"""`SolverService` — the QP solver front-end with architecture reuse.

The paper's customization flow is built once per problem *structure*
and amortized over many solves; this service makes that operational:

1. every submitted problem is fingerprinted
   (:mod:`repro.serving.fingerprint`),
2. the fingerprint is looked up in an LRU architecture cache
   (:mod:`repro.serving.arch_cache`) — a hit skips the LZW search,
   scheduling, CVB compression *and* program compilation,
3. a worker leases a resident accelerator bound to the cached
   artifact (:class:`repro.serving.pool.Resident`, building one only
   when none is idle), refreshes it with the request's numeric data and
   runs it,
4. per-request records and a metrics registry
   (:mod:`repro.serving.metrics`) account for every stage.

Cold structures either build synchronously (``cold_policy="build"``,
the default) or, for latency-bounded deployments
(``cold_policy="fallback"``), are answered immediately by the
reference software :class:`~repro.solver.OSQPSolver` while the
customization flow runs in the background — the structure is warm for
every later request.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field

import numpy as np

from ..batch import LANE_FAULT, bind_batch
from ..exceptions import (DeadlineExceededError, FaultDetectedError,
                          SimulationError)
from ..experiments.runner import choose_width
from ..faults import ResiliencePolicy, poison_artifact, solution_ok
from ..hw.compiled import validate_backend
from ..qp import QProblem
from ..solver import OSQPSettings, available_algorithms, choose_algorithm
from .arch_cache import (ArchArtifact, ArchCache, CacheStats,
                         build_artifact)
from .fingerprint import StructureFingerprint, fingerprint_problem
from .metrics import MetricsRegistry
from .pool import (BatchResident, Resident, WorkerPool, batch_width,
                   bind_accelerator, reference_job)

__all__ = ["ServeRecord", "ServeResult", "SolverService"]

#: Cache tiers a request can be served from.
TIER_HIT = "hit"          # artifact found in memory
TIER_DISK = "disk"        # rebuilt from a persisted architecture decision
TIER_BUILD = "build"      # full customization flow ran
TIER_FALLBACK = "fallback"  # reference solver answered a cold request


@dataclass
class ServeRecord:
    """Accounting for one request, kept for reports and benchmarks."""

    request_id: int
    problem_name: str
    fingerprint_key: str
    c: int
    architecture: str
    tier: str
    backend: str  # "rsqp" | "reference"
    algorithm: str = "admm"  # "admm" | "pdqp"
    queue_seconds: float = 0.0
    #: Fingerprint + cache lookup + (on cold tiers) artifact build.
    setup_seconds: float = 0.0
    customize_seconds: float = 0.0
    compile_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    simulated_cycles: int = 0
    simulated_seconds: float = 0.0
    admm_iterations: int = 0
    converged: bool = False
    # -- resilience accounting (repro.faults) --------------------------
    retries: int = 0
    rollbacks: int = 0
    faults_injected: int = 0
    degraded: bool = False
    deadline_missed: bool = False
    #: Lockstep batch width this request solved at (1 = solo).
    batch_width: int = 1

    @property
    def cache_hit(self) -> bool:
        return self.tier == TIER_HIT


@dataclass
class ServeResult:
    """Solution plus provenance; ``raw`` is the backend's own result."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    converged: bool
    backend: str
    record: ServeRecord
    raw: object = field(repr=False, default=None)


def _outcome(raw, reference: bool = False) -> dict:
    """The :class:`ServeRecord` fields an answer's solver decides."""
    if reference:
        return {"backend": "reference", "converged": raw.status.is_optimal,
                "admm_iterations": raw.info.iterations}
    return {"backend": "rsqp", "converged": raw.converged,
            "simulated_cycles": raw.total_cycles,
            "simulated_seconds": raw.solve_seconds,
            "admm_iterations": raw.admm_iterations}


class SolverService:
    """Batched QP solving with structure fingerprinting + arch reuse.

    Parameters
    ----------
    c:
        Datapath width; ``None`` (default) picks per problem by nnz
        via :func:`repro.experiments.runner.choose_width`.
    settings:
        Solver settings shared by accelerator and reference backends.
    workers, mode:
        Worker pool size and execution mode (``"thread"`` or
        ``"serial"``); see :class:`repro.serving.pool.WorkerPool`.
        ``workers`` also caps the idle resident accelerators each cache
        entry keeps. For more than one process, use
        :class:`~repro.serving.sharded.ShardedSolverService`.
    cache_capacity, cache_path:
        LRU capacity and optional JSON persistence file for the
        architecture cache (loaded on construction if it exists,
        saved on :meth:`close`).
    cold_policy:
        ``"build"`` — cold structures run the customization flow
        in-line; ``"fallback"`` — cold structures are solved by the
        reference software solver immediately while the artifact
        builds in the background.
    backend:
        Execution backend for the simulated accelerator:
        ``"compiled"`` (default, lowered fused kernels) or
        ``"interpret"`` (the instruction-at-a-time oracle). Both
        produce bit-identical solutions and cycle counts; distinct
        from :attr:`ServeRecord.backend`, which records whether a
        request was served by the accelerator or the software
        fallback.
    verify:
        When True (default), every artifact passes the static
        verification suite (:mod:`repro.verify`) once, right after it
        enters the cache; a rejected artifact fails the request with a
        structured :class:`~repro.exceptions.VerificationError`
        (carrying the diagnostic report) instead of crashing mid-solve,
        and increments ``serving_verify_rejects_total``.
    algorithm:
        Which solver algorithm requests run on: a registered name
        (``"admm"``, ``"pdqp"``) pins every request to that algorithm;
        ``"auto"`` (default) picks per problem *structure* via
        :func:`repro.solver.choose_algorithm` — large sparse
        structures (where ADMM's inner PCG sweeps dominate the cycle
        count) go to the first-order PDQP pipeline, small, dense or
        extremely ill-scaled ones stay on ADMM. The choice is part of
        the cache key, so one service can hold artifacts for both.
    """

    def __init__(self, *, c: int | None = None,
                 settings: OSQPSettings | None = None,
                 workers: int = 2, mode: str = "thread",
                 cache_capacity: int = 128,
                 cache_path=None,
                 cold_policy: str = "build",
                 pcg_eps: float = 1e-7,
                 max_pcg_iter: int = 500,
                 backend: str = "compiled",
                 verify: bool = True,
                 fault_plan=None,
                 resilience: ResiliencePolicy | None = None,
                 algorithm: str = "auto",
                 max_batch: int = 32,
                 max_linger: float = 0.005):
        if cold_policy not in ("build", "fallback"):
            raise ValueError(
                f"cold_policy must be 'build' or 'fallback', "
                f"got {cold_policy!r}")
        if algorithm != "auto" and algorithm not in available_algorithms():
            raise ValueError(
                f"algorithm must be 'auto' or one of "
                f"{available_algorithms()}, got {algorithm!r}")
        self.algorithm = algorithm
        self.backend = validate_backend(backend)
        self.verify = bool(verify)
        #: Deterministic fault schedule (:class:`repro.faults.FaultPlan`)
        #: or None. Non-empty plans arm per-request hardware injectors
        #: and artifact poisoning; the resilience policy below decides
        #: how failures are retried and degraded.
        self.fault_plan = fault_plan if fault_plan else None
        self.resilience = (resilience if resilience is not None
                           else ResiliencePolicy())
        #: Backoff jitter stream — seeded, shared across requests under
        #: the service lock so retry timing is reproducible in serial
        #: mode and merely bounded in threaded mode.
        self._jitter_rng = self.resilience.jitter_rng()
        self.c = c
        self.settings = settings if settings is not None else OSQPSettings()
        self.cold_policy = cold_policy
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        #: Coalescing bounds for :meth:`solve_batch` (see
        #: :class:`repro.batch.Coalescer`): widest lockstep batch and
        #: the linger budget a queued group may wait for more lanes.
        self.max_batch = int(max_batch)
        self.max_linger = float(max_linger)
        self.metrics = MetricsRegistry()
        # Each cache entry holds up to one idle resident accelerator per
        # worker, so the pool is bounded by cache_capacity * workers.
        self.cache = ArchCache(capacity=cache_capacity, path=cache_path,
                               resident_slots=workers,
                               on_discard=self._count_discard)
        self._dispatch = WorkerPool(workers=workers, mode=mode)
        self.mode = mode
        self._lock = threading.Lock()
        self._next_id = 0
        self._futures: dict[int, Future] = {}
        self._records: dict[int, ServeRecord] = {}
        self._background: list[Future] = []
        self._closed = False

    # ------------------------------------------------------------------
    # structure handling
    # ------------------------------------------------------------------
    def width_for(self, problem: QProblem) -> int:
        return self.c if self.c is not None else choose_width(problem.nnz)

    def cache_key(self, fingerprint: StructureFingerprint, c: int,
                  algorithm: str = "admm") -> str:
        """Structure key + the build parameters baked into an artifact.

        ``settings.max_iter`` is deliberately absent: the accelerator
        re-wraps the iteration body per segment at run time, so one
        compiled artifact serves any outer iteration limit. ADMM keys
        keep the historical form (so persisted v1 caches stay warm);
        other algorithms append their name.
        """
        base = f"{fingerprint.key}:c{c}:pcg{self.max_pcg_iter}"
        return base if algorithm == "admm" else f"{base}:{algorithm}"

    def _route(self, problem: QProblem) -> tuple:
        """``(c, fingerprint, algorithm, key)`` for one problem."""
        c = self.width_for(problem)
        fingerprint = fingerprint_problem(problem, c=c)
        algorithm = choose_algorithm(
            problem, override=None if self.algorithm == "auto"
            else self.algorithm)
        return c, fingerprint, algorithm, self.cache_key(fingerprint, c,
                                                         algorithm)

    def _build_artifact(self, problem: QProblem,
                        fingerprint: StructureFingerprint,
                        c: int, key: str,
                        algorithm: str = "admm") -> ArchArtifact:
        """Full (or persisted-spec) build; the cache-miss path."""
        return build_artifact(
            problem, c, self.cache, fingerprint=fingerprint, key=key,
            max_admm_iter=self.settings.max_iter,
            max_pcg_iter=self.max_pcg_iter, metrics=self.metrics,
            algorithm=algorithm)

    def _ensure_artifact(self, problem: QProblem,
                         fingerprint: StructureFingerprint,
                         c: int,
                         algorithm: str = "admm"
                         ) -> tuple[ArchArtifact, str]:
        """Return ``(artifact, tier)``, building at most once per key."""
        key = self.cache_key(fingerprint, c, algorithm)
        had_spec = self.cache.persisted_spec(key) is not None
        artifact, was_hit = self.cache.get_or_build(
            key, lambda: self._build_artifact(problem, fingerprint, c, key,
                                              algorithm))
        tier = TIER_HIT if was_hit else (TIER_DISK if had_spec
                                         else TIER_BUILD)
        if self.verify:
            from ..exceptions import VerificationError
            from ..verify import ensure_artifact_verified
            try:
                ensure_artifact_verified(artifact, context=key)
            except VerificationError:
                self.metrics.counter(
                    "serving_verify_rejects_total").inc()
                # A cached artifact that fails static verification is
                # corrupt (e.g. poisoned in memory or on disk): drop it
                # and rebuild once from the persisted spec. Only a
                # fresh build that is *still* rejected — a real
                # compiler/search bug — propagates.
                self.cache.invalidate(key)
                artifact, _ = self.cache.get_or_build(
                    key, lambda: self._build_artifact(
                        problem, fingerprint, c, key, algorithm))
                try:
                    ensure_artifact_verified(artifact, context=key)
                except VerificationError:
                    self.metrics.counter(
                        "serving_verify_rejects_total").inc()
                    raise
                self.metrics.counter(
                    "serving_artifact_rebuilds_total").inc()
        return artifact, tier

    # ------------------------------------------------------------------
    # persistent sessions
    # ------------------------------------------------------------------
    def open_session(self, problem: QProblem, *,
                     carry_state: bool = True,
                     deadline: float | None = None):
        """Bind a persistent :class:`~repro.serving.session.SolverSession`
        to ``problem``'s structure.

        Pays the full request cost once — fingerprint, cache lookup or
        build, verification, leasing a resident accelerator — and
        returns a handle that keeps the lease until it closes: its
        :meth:`~repro.serving.session.SolverSession.update` /
        :meth:`~repro.serving.session.SolverSession.resolve` loop
        re-solves with none of it. See :mod:`repro.serving.session`.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        from .session import SolverSession
        c, fingerprint, algorithm, key = self._route(problem)
        artifact, tier = self._ensure_artifact(problem, fingerprint, c,
                                               algorithm)
        self.metrics.counter("serving_session_opened_total").inc()
        self.metrics.counter(
            "serving_cache_hits_total" if tier == TIER_HIT
            else "serving_cache_misses_total").inc()
        return SolverSession(self, problem, key,
                             self._lease(key, artifact, problem), tier,
                             fingerprint, c, algorithm,
                             carry_state=carry_state, deadline=deadline)

    def open_batch_session(self, problems):
        """Bind a lockstep
        :class:`~repro.serving.session.BatchSolverSession` to a fleet
        of same-structure problems: one artifact and one leased
        batched resident of ``len(problems)`` lanes, pinned until the
        session closes. Every lane must share one artifact cache key.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        from .session import BatchSolverSession
        problems = list(problems)
        if not problems:
            raise ValueError("a batch session needs at least one lane")
        c, fingerprint, algorithm, key = self._route(problems[0])
        for idx, other in enumerate(problems[1:], start=1):
            if self._route(other)[3] != key:
                raise ValueError(
                    f"lane {idx} has a different structure/width/"
                    "algorithm than lane 0; a batch session is "
                    "single-structure by construction")
        artifact, tier = self._ensure_artifact(problems[0], fingerprint,
                                               c, algorithm)
        self.metrics.counter("serving_session_opened_total").inc()
        return BatchSolverSession(self, problems, key,
                                  self._lease_batch(key, artifact, problems),
                                  tier, fingerprint, c, algorithm)

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def submit(self, problem: QProblem, *,
               warm_start: tuple | None = None,
               deadline: float | None = None,
               request_id: int | None = None) -> int:
        """Enqueue one solve; returns a request id for :meth:`result`.

        ``deadline`` is a per-request wall-clock budget in seconds,
        measured from submission; it overrides
        ``resilience.deadline_seconds`` and is enforced cooperatively
        inside the accelerator (between ADMM segments) and between
        retry attempts. A missed deadline degrades to the reference
        solver (when the policy allows) rather than returning late
        accelerator output.

        ``request_id`` lets an embedding layer (the sharded front door)
        impose its own id so fault-plan addressing and cross-process
        accounting line up with the global request stream; auto-
        assigned ids continue above any imposed id.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        with self._lock:
            if request_id is None:
                request_id = self._next_id
                self._next_id += 1
            else:
                request_id = int(request_id)
                self._next_id = max(self._next_id, request_id + 1)
        submitted = time.perf_counter()
        future = self._dispatch.submit(
            self._handle, request_id, problem, warm_start, submitted,
            deadline)
        with self._lock:
            self._futures[request_id] = future
        return request_id

    def result(self, request_id: int,
               timeout: float | None = None) -> ServeResult:
        """Block for a submitted request's result (re-entrant)."""
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown request id {request_id}")
        return future.result(timeout=timeout)

    def solve(self, problem: QProblem, *,
              warm_start: tuple | None = None,
              timeout: float | None = None,
              deadline: float | None = None,
              request_id: int | None = None) -> ServeResult:
        """Synchronous convenience: submit + result.

        The answer goes straight back to the caller, so the service
        keeps only the record, not the request's future.
        """
        request_id = self.submit(problem, warm_start=warm_start,
                                 deadline=deadline, request_id=request_id)
        result = self.result(request_id, timeout=timeout)
        with self._lock:
            self._futures.pop(request_id, None)
        return result

    def solve_batch(self, problems, *, warm_starts=None,
                    deadlines=None, timeout: float | None = None,
                    coalesce: bool = True,
                    request_ids=None) -> list[ServeResult]:
        """Solve many problems, coalescing same-structure requests
        into lockstep batches; results preserve submission order.

        Requests are grouped by artifact cache key (structure
        fingerprint + width + algorithm) through
        :class:`repro.batch.Coalescer` — a group ships the moment it
        reaches ``max_batch`` lanes and the remainder flushes when the
        synchronous call has queued everything. Each group runs once
        on a batched resident of its width, leased from the cache
        entry and refreshed in place, or bound when none is idle (lane
        results are bitwise identical to solo solves); a lane the
        batch freezes — injected fault, missed ``deadline`` — falls
        back to the solo resilient path alone, without disturbing its
        batchmates.
        ``deadlines`` are per-request budgets in seconds, as in
        :meth:`submit`. ``coalesce=False`` restores the per-request
        submit/result path. ``request_ids`` imposes caller-chosen ids
        exactly like :meth:`submit`'s ``request_id``.
        """
        problems = list(problems)
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        if deadlines is None:
            deadlines = [None] * len(problems)
        if request_ids is None:
            request_ids = [None] * len(problems)
        if not (len(warm_starts) == len(deadlines) == len(request_ids)
                == len(problems)):
            raise ValueError("per-request argument lists must match the "
                             "number of problems")
        if not coalesce or len(problems) < 2:
            ids = [self.submit(p, warm_start=w, deadline=dl, request_id=r)
                   for p, w, dl, r in zip(problems, warm_starts,
                                          deadlines, request_ids)]
            return [self.result(i, timeout=timeout) for i in ids]
        if self._closed:
            raise RuntimeError("service is closed")

        from ..batch import Coalescer
        submitted = time.perf_counter()
        lanes = []
        for problem, warm, dl, rid_in in zip(problems, warm_starts,
                                             deadlines, request_ids):
            with self._lock:
                if rid_in is None:
                    rid = self._next_id
                    self._next_id += 1
                else:
                    rid = int(rid_in)
                    self._next_id = max(self._next_id, rid + 1)
            if dl is None:
                dl = self.resilience.deadline_seconds
            lanes.append({
                "rid": rid, "problem": problem, "warm": warm,
                "submitted": submitted,
                "deadline": dl,
                "deadline_at": (submitted + dl) if dl is not None
                               else None,
            })

        coalescer = Coalescer(max_batch=self.max_batch,
                              max_linger=self.max_linger)
        results: dict[int, ServeResult] = {}
        for idx, lane in enumerate(lanes):
            problem = lane["problem"]
            t_fp = time.perf_counter()
            c, fingerprint, algorithm, key = self._route(problem)
            lane["fingerprint"] = fingerprint
            lane["c"] = c
            lane["algorithm"] = algorithm
            lane["fp_seconds"] = time.perf_counter() - t_fp
            full = coalescer.offer(key, idx,
                                   deadline_at=lane["deadline_at"])
            if full is not None:
                self.metrics.counter("serving_batch_flushes_total",
                                     labels={"reason": "full"}).inc()
                self._solve_batch_group(key, [lanes[i] for i in full],
                                        results)
        for key, idxs in coalescer.flush_all():
            self.metrics.counter("serving_batch_flushes_total",
                                 labels={"reason": "drain"}).inc()
            self._solve_batch_group(key, [lanes[i] for i in idxs],
                                    results)
        return [results[lane["rid"]] for lane in lanes]

    def _solve_batch_group(self, key: str, group: list,
                           results: dict) -> None:
        """Solve one coalesced group; fall back lane-by-lane on error."""
        def solo(lane):
            results[lane["rid"]] = self._handle(
                lane["rid"], lane["problem"], lane["warm"],
                lane["submitted"], lane["deadline"])

        if len(group) == 1:
            solo(group[0])
            return
        first = group[0]
        t_start = time.perf_counter()
        try:
            artifact, tier = self._ensure_artifact(
                first["problem"], first["fingerprint"], first["c"],
                first["algorithm"])
        except Exception:
            for lane in group:
                solo(lane)
            return
        t_ready = time.perf_counter()
        # Lanes beyond the first are true cache hits: the group key IS
        # the artifact key, so every extra lane reuses the resident
        # artifact. Touch the cache per lane so LRU order and hit-rate
        # accounting see each request, exactly like solo solves would.
        lane_tiers = [tier]
        for lane in group[1:]:
            self.cache.get(key)
            lane_tiers.append(TIER_HIT)
        plan = self.fault_plan
        injectors = [plan.injector_for(lane["rid"], 0)
                     if plan is not None else None for lane in group]
        problems = [lane["problem"] for lane in group]
        # An unarmed group runs at the next compiled width, its spare
        # lanes copies of lane 0 (an armed machine fuses no loop, so
        # its exact width compiles nothing).
        padded = group
        if all(injector is None for injector in injectors):
            padded = group + [first] * (batch_width(len(group))
                                        - len(group))
            injectors = [None] * len(padded)
        resident = None
        try:
            if self.verify:
                from ..verify import ensure_batch_verified
                ensure_batch_verified(
                    artifact, problems,
                    fingerprints=[lane["fingerprint"] for lane in group])
            resident = self._lease_batch(
                key, artifact, [lane["problem"] for lane in padded],
                warm_starts=[lane["warm"] for lane in padded],
                deadline_ats=[lane["deadline_at"] for lane in padded],
                injectors=injectors)
            full = resident.run()
            bres = full.first(len(group))
        except Exception:
            self.metrics.counter("serving_batch_aborts_total").inc()
            for lane in group:
                solo(lane)
            return
        finally:
            if resident is not None:
                self._give_back(key, resident)
        t_done = time.perf_counter()
        self.metrics.counter("serving_batches_total").inc()
        self.metrics.histogram("serving_batch_width").observe(len(group))
        # The group's lane cycles over every lane slot the machine ran,
        # spare lanes included.
        self.metrics.histogram("serving_batch_lane_utilization").observe(
            bres.lockstep_speedup / full.batch)
        self.metrics.counter("serving_batch_spare_lanes_total").inc(
            full.batch - bres.batch)

        res = self.resilience
        for lane, lane_tier, raw, err in zip(group, lane_tiers,
                                             bres.results,
                                             bres.lane_errors):
            if raw is None:
                # Frozen lane (fault / deadline): the solo resilient
                # path owns retry, degradation and accounting.
                self.metrics.counter(
                    "serving_batch_lane_fallbacks_total",
                    labels={"reason": err or "unknown"}).inc()
                solo(lane)
                continue
            suspect = bool(raw.fault_events)
            check = (res.check == "always"
                     or (res.check == "auto" and suspect))
            if (check and not solution_ok(
                    lane["problem"], raw.x, raw.y, raw.z,
                    eps_abs=self.settings.eps_abs,
                    eps_rel=self.settings.eps_rel,
                    factor=res.check_factor)):
                # Same silent-corruption guarantee as the solo path: a
                # lane that fails the host KKT re-check never returns
                # batched output.
                self.metrics.counter(
                    "serving_silent_corruption_total").inc()
                self.metrics.counter(
                    "serving_batch_lane_fallbacks_total",
                    labels={"reason": "kkt"}).inc()
                solo(lane)
                continue
            faults_fired = len(raw.fault_events)
            if faults_fired:
                self.metrics.counter(
                    "serving_faults_injected_total").inc(faults_fired)
            self.metrics.counter("serving_requests_total").inc()
            self._count_selected(lane["algorithm"])
            self.metrics.counter("serving_batched_requests_total").inc()
            self.metrics.counter(
                "serving_cache_hits_total" if lane_tier == TIER_HIT
                else "serving_cache_misses_total").inc()
            setup_seconds = lane.get("fp_seconds", 0.0) + (
                t_ready - t_start if lane_tier != TIER_HIT else 0.0)
            record = ServeRecord(
                request_id=lane["rid"],
                problem_name=lane["problem"].name,
                fingerprint_key=lane["fingerprint"].key, c=lane["c"],
                architecture=artifact.architecture_string,
                tier=lane_tier,
                backend="rsqp", algorithm=lane["algorithm"],
                queue_seconds=t_start - lane["submitted"],
                setup_seconds=setup_seconds,
                customize_seconds=(artifact.customize_seconds
                                   if lane_tier in (TIER_BUILD, TIER_DISK)
                                   else 0.0),
                compile_seconds=(artifact.compile_seconds
                                 if lane_tier in (TIER_BUILD, TIER_DISK)
                                 else 0.0),
                solve_seconds=t_done - t_ready,
                total_seconds=t_done - lane["submitted"],
                simulated_cycles=raw.total_cycles,
                simulated_seconds=raw.solve_seconds,
                admm_iterations=raw.admm_iterations,
                converged=raw.converged,
                faults_injected=faults_fired,
                batch_width=len(group))
            results[lane["rid"]] = self._file(record, raw)

    # ------------------------------------------------------------------
    def _handle(self, request_id: int, problem: QProblem,
                warm_start: tuple | None,
                submitted: float,
                deadline: float | None = None) -> ServeResult:
        t_start = time.perf_counter()
        self.metrics.counter("serving_requests_total").inc()
        c, fingerprint, algorithm, key = self._route(problem)
        self._count_selected(algorithm)

        poisoned = self._apply_poisons(request_id, key)
        if deadline is None:
            deadline = self.resilience.deadline_seconds
        deadline_at = (submitted + deadline) if deadline is not None else None
        if self.cold_policy == "fallback":
            artifact = self.cache.get(key)
            if artifact is not None:
                tier = TIER_HIT
            else:
                tier = TIER_FALLBACK
                with self._lock:
                    self._background.append(self._dispatch.submit(
                        self._ensure_artifact, problem, fingerprint, c,
                        algorithm))
        else:
            artifact, tier = self._ensure_artifact(problem, fingerprint, c,
                                                   algorithm)
        t_ready = time.perf_counter()

        if tier == TIER_FALLBACK:
            self.metrics.counter("serving_fallback_solves_total").inc()
            raw = self._run_reference(problem, warm_start, algorithm)
            fields = _outcome(raw, reference=True)
        else:
            self.metrics.counter(
                "serving_cache_hits_total" if tier == TIER_HIT
                else "serving_cache_misses_total").inc()
            raw, fields = self._solve_resilient(
                request_id, problem, warm_start, deadline_at,
                lambda injector, remaining: self._run_accelerator(
                    key, problem, artifact, warm_start, injector=injector,
                    deadline_seconds=remaining),
                artifact.algorithm)
        fields["faults_injected"] = fields.get("faults_injected", 0) \
            + poisoned
        t_done = time.perf_counter()
        built = tier in (TIER_BUILD, TIER_DISK)
        return self._file(ServeRecord(
            request_id=request_id, problem_name=problem.name,
            fingerprint_key=fingerprint.key, c=c,
            architecture=(artifact.architecture_string
                          if artifact is not None else ""),
            tier=tier, algorithm=algorithm,
            queue_seconds=t_start - submitted,
            setup_seconds=t_ready - t_start,
            customize_seconds=artifact.customize_seconds if built else 0.0,
            compile_seconds=artifact.compile_seconds if built else 0.0,
            solve_seconds=t_done - t_ready,
            total_seconds=t_done - submitted, **fields), raw)

    def _count_selected(self, algorithm: str) -> None:
        """Tally one request's algorithm, whether it is served batched
        or solo (a batch lane that falls back counts in ``_handle``)."""
        self.metrics.counter("serving_algo_selected_total").inc()
        self.metrics.counter(
            f"serving_algo_selected_{algorithm}_total").inc()

    def _file(self, record: ServeRecord, raw,
              staged: bool = True) -> ServeResult:
        """Keep ``record``, observe it, and wrap the answer; ``staged``
        records carry queue/setup/solve timings."""
        with self._lock:
            self._records[record.request_id] = record
        metrics = self.metrics
        if staged:
            for stage in ("queue", "setup", "solve"):
                metrics.histogram(f"serving_{stage}_seconds").observe(
                    getattr(record, f"{stage}_seconds"))
        metrics.histogram("serving_admm_iterations").observe(
            record.admm_iterations)
        if record.simulated_cycles:
            metrics.histogram("serving_simulated_cycles").observe(
                record.simulated_cycles)
        if not record.converged:
            metrics.counter("serving_unconverged_total").inc()
        return ServeResult(x=raw.x, y=raw.y, z=raw.z,
                           converged=record.converged,
                           backend=record.backend, record=record, raw=raw)

    def _apply_poisons(self, request_id: int, key: str) -> int:
        """Fire scheduled artifact-poison faults against the cache.

        Only an artifact already resident in memory can be poisoned
        (``peek`` — no LRU side effect); the corruption is then caught
        by static verification on the next :meth:`_ensure_artifact`
        and healed by the invalidate + rebuild path.
        """
        plan = self.fault_plan
        if plan is None:
            return 0
        fired = 0
        for _fault in plan.poisons_for(request_id):
            target = self.cache.peek(key)
            if target is None:
                continue
            poison_artifact(target)
            fired += 1
            self.metrics.counter("serving_faults_injected_total").inc()
        return fired

    def _solve_resilient(self, request_id, problem, warm_start,
                         deadline_at, attempt_fn, algorithm):
        """Accelerator attempts with retry/backoff, then degradation.

        ``attempt_fn(injector, remaining_seconds)`` runs one attempt:
        a leased resident for :meth:`solve`, the pinned one for a
        session. Returns ``(raw, fields)``: ``raw`` is an
        :class:`~repro.hw.accelerator.RSQPResult` on success or the
        reference solver's result when every attempt failed and the
        policy degrades; ``fields`` are the resilience and outcome
        :class:`ServeRecord` fields (``degraded`` tells them apart).
        The headline guarantee lives here: a solution that survived
        injected faults is re-checked against the KKT conditions on
        the host, so a silently-corrupted answer is treated exactly
        like a crash — retried, then degraded — never returned.
        """
        res = self.resilience
        plan = self.fault_plan
        resil = {"retries": 0, "rollbacks": 0, "faults_injected": 0,
                 "degraded": False, "deadline_missed": False}
        attempt = 0
        last_exc: BaseException | None = None
        while attempt <= res.max_retries:
            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0:
                    last_exc = DeadlineExceededError(
                        f"request {request_id} deadline expired before "
                        f"attempt {attempt}")
                    self._record_deadline_miss(deadline_at, resil)
                    break
            injector = (plan.injector_for(request_id, attempt)
                        if plan is not None else None)
            try:
                raw = attempt_fn(injector, remaining)
            except DeadlineExceededError as exc:
                last_exc = exc
                self._count_injected(injector, resil)
                self._record_deadline_miss(deadline_at, resil)
                break  # no budget left for another attempt
            except (FaultDetectedError, SimulationError) as exc:
                last_exc = exc
                self._count_injected(injector, resil)
                attempt += 1
                if attempt > res.max_retries:
                    break
                resil["retries"] += 1
                self.metrics.counter("serving_retries_total").inc()
                with self._lock:
                    delay = res.backoff_seconds(attempt, self._jitter_rng)
                if remaining is not None:
                    delay = min(delay, max(remaining, 0.0))
                if delay > 0:
                    time.sleep(delay)
                continue
            self._count_injected(injector, resil)
            resil["rollbacks"] += raw.rollbacks
            if raw.rollbacks:
                self.metrics.counter(
                    "serving_fault_rollbacks_total").inc(raw.rollbacks)
            suspect = bool(raw.fault_events) or raw.rollbacks > 0
            check = (res.check == "always"
                     or (res.check == "auto" and suspect))
            if (raw.converged and check
                    and not solution_ok(
                        problem, raw.x, raw.y, raw.z,
                        eps_abs=self.settings.eps_abs,
                        eps_rel=self.settings.eps_rel,
                        factor=res.check_factor)):
                # Silent corruption: converged flag is up but the
                # solution does not satisfy KKT. Retry like a crash.
                last_exc = FaultDetectedError(
                    f"request {request_id} attempt {attempt}: solution "
                    "failed the host-side KKT re-check",
                    events=raw.fault_events)
                self.metrics.counter(
                    "serving_silent_corruption_total").inc()
                attempt += 1
                if attempt > res.max_retries:
                    break
                resil["retries"] += 1
                self.metrics.counter("serving_retries_total").inc()
                continue
            return raw, {**resil, **_outcome(raw)}
        # Every attempt failed (or the deadline is gone).
        if not res.degrade:
            assert last_exc is not None
            raise last_exc
        self.metrics.counter("serving_degraded_total").inc()
        resil["degraded"] = True
        raw = self._run_reference(problem, warm_start, algorithm)
        return raw, {**resil, **_outcome(raw, reference=True)}

    def _count_injected(self, injector, resil) -> None:
        """Tally faults fired during one attempt, whatever its outcome."""
        if injector is None:
            return
        fired = len(injector.events)
        if fired:
            resil["faults_injected"] += fired
            self.metrics.counter(
                "serving_faults_injected_total").inc(fired)

    def _record_deadline_miss(self, deadline_at, resil) -> None:
        if resil["deadline_missed"]:
            return
        resil["deadline_missed"] = True
        overrun = max(time.perf_counter() - deadline_at, 0.0)
        self.metrics.counter("serving_deadline_misses_total").inc()
        self.metrics.histogram(
            "serving_deadline_miss_seconds").observe(overrun)

    def _run_accelerator(self, key, problem, artifact, warm_start,
                         injector=None, deadline_seconds=None):
        """One attempt on a leased resident."""
        resident = self._lease(key, artifact, problem)
        try:
            return resident.run(warm_start, injector, deadline_seconds)
        finally:
            self._give_back(key, resident)

    def _lease(self, key: str, artifact: ArchArtifact,
               problem: QProblem) -> Resident:
        """A resident bound to ``artifact`` holding ``problem``'s data:
        an idle one refreshed in place, else a newly bound one."""
        resident = self.cache.lease(key, artifact)
        if resident is not None:
            resident.accelerator.refresh_numeric(problem)
            return resident
        self.metrics.counter("serving_accelerator_binds_total").inc()
        return Resident(bind_accelerator(problem, artifact, self.settings,
                                         self.pcg_eps, self.backend),
                        artifact)

    def _lease_batch(self, key: str, artifact: ArchArtifact, problems, *,
                     warm_starts=None, deadline_ats=None,
                     injectors=None) -> BatchResident:
        """A batched resident of ``len(problems)`` lanes bound to
        ``artifact`` and loaded with ``problems``: an idle one
        refreshed in place, else a newly bound one. A group with an
        armed injector always binds — fault hooks are fixed when the
        machine lowers, and an armed machine fuses no loop — and its
        machine is spoiled from the start, so it never joins the
        pool."""
        armed = injectors is not None and any(
            injector is not None for injector in injectors)
        if not armed:
            resident = self.cache.lease(key, artifact, len(problems))
            if resident is not None:
                resident.accelerator.refresh(problems, warm_starts,
                                             deadline_ats)
                return resident
        self.metrics.counter("serving_accelerator_binds_total").inc()
        resident = BatchResident(bind_batch(
            problems, artifact, self.settings, self.pcg_eps,
            warm_starts=warm_starts, injectors=injectors,
            deadline_ats=deadline_ats), artifact)
        if armed:
            resident.spoiled = LANE_FAULT
        return resident

    def _give_back(self, key: str, resident: Resident) -> None:
        """End a lease: a spoiled machine is dropped, never pooled."""
        if resident.spoiled:
            self._count_discard(resident.spoiled, 1)
        else:
            self.cache.release(key, resident)

    def _count_discard(self, reason: str, count: int) -> None:
        self.metrics.counter("serving_resident_discards_total",
                             labels={"reason": reason}).inc(count)

    def _run_reference(self, problem, warm_start, algorithm="admm"):
        return reference_job(problem, self.settings, warm_start, algorithm)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def records(self) -> list[ServeRecord]:
        with self._lock:
            return [self._records[i] for i in sorted(self._records)]

    def cache_stats(self) -> CacheStats:
        return self.cache.stats()

    def metrics_snapshot(self) -> dict:
        """Metrics + cache counters in one export (docs/SERVING.md)."""
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache_stats().as_dict()
        return snap

    def amortization_report(self) -> str:
        """Cold-vs-warm setup comparison over everything served so far."""
        records = self.records()
        cold = [r for r in records if r.tier in (TIER_BUILD, TIER_DISK)]
        warm = [r for r in records if r.tier == TIER_HIT]
        lines = [f"requests served        : {len(records)}"]
        stats = self.cache_stats()
        lines.append(f"cache hit rate         : {stats.hit_rate:.1%} "
                     f"({stats.hits} hits / {stats.misses} misses)")
        if cold:
            cold_setup = float(np.mean([r.setup_seconds for r in cold]))
            lines.append(f"cold setup (mean)      : {cold_setup * 1e3:.2f} ms"
                         "  (customize + compile + bind)")
        if warm:
            warm_setup = float(np.mean([r.setup_seconds for r in warm]))
            lines.append(f"warm setup (mean)      : {warm_setup * 1e3:.2f} ms"
                         "  (fingerprint + cache lookup)")
        if cold and warm and warm_setup > 0:
            lines.append(f"setup amortization     : "
                         f"{cold_setup / warm_setup:.1f}x")
        fallback = [r for r in records if r.tier == TIER_FALLBACK]
        if fallback:
            lines.append(f"reference fallbacks    : {len(fallback)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Wait for all outstanding requests and background builds.

        Re-snapshots until quiescent, so background builds scheduled by
        requests that finish *during* the drain are waited on too.
        ``timeout`` is a **total** budget across everything
        outstanding; on expiry a :class:`TimeoutError` is raised with
        the number of still-unfinished requests — never a silent
        return with work still in flight.
        """
        budget_ends = (time.monotonic() + timeout
                       if timeout is not None else None)
        waited: set[int] = set()
        while True:
            with self._lock:
                futures = [f for f in (list(self._futures.values())
                                       + list(self._background))
                           if id(f) not in waited]
            if not futures:
                return
            for future in futures:
                waited.add(id(future))
                if budget_ends is None:
                    future.exception()
                    continue
                remaining = budget_ends - time.monotonic()
                try:
                    if remaining <= 0:
                        raise _FuturesTimeout()
                    future.exception(timeout=remaining)
                except _FuturesTimeout:
                    pending = sum(1 for f in futures if not f.done())
                    raise TimeoutError(
                        f"drain timed out after {timeout:.3g}s with "
                        f"{pending} request(s) still outstanding"
                    ) from None

    def close(self, timeout: float | None = None,
              cancel_pending: bool = False) -> None:
        """Drain, persist the cache (if configured) and stop workers.

        With a ``timeout``, the drain raises :class:`TimeoutError` on
        expiry. By default that propagates with the service still
        open (callers may drain again); ``cancel_pending=True`` turns
        it into a *hard* shutdown instead — never-started work is
        cancelled at the executors so every outstanding future
        resolves (result, exception, or cancelled) and nothing leaks.
        """
        if self._closed:
            return
        try:
            self.drain(timeout=timeout)
        except TimeoutError:
            if not cancel_pending:
                raise
            self._closed = True
            self._dispatch.shutdown(wait=True, cancel_pending=True)
            if self.cache.path is not None:
                self.cache.save()
            return
        self._closed = True
        if self.cache.path is not None:
            self.cache.save()
        self._dispatch.shutdown()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
