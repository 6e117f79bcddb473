"""Crash-tolerant process-sharded serving over shared-memory artifacts.

:class:`ShardedSolverService` is the multi-process front door of the
serving layer: requests are fingerprinted once
(:mod:`repro.serving.fingerprint`) and routed *by structure* to one of
N worker **processes**, each running a full single-process
:class:`~repro.serving.service.SolverService` — so every per-shard
guard built in earlier PRs (static verification, KKT re-check, retry /
degrade under :class:`~repro.faults.ResiliencePolicy`) holds unchanged
inside each shard.

The pieces:

* **artifact flow** — the front door builds each structure's frozen
  artifact once (parent-side :class:`~repro.serving.arch_cache.
  ArchCache`, verified before publication) and publishes it into a
  checksummed :class:`~repro.serving.shm_store.ShmArtifactStore`
  segment; workers attach by :class:`~repro.serving.shm_store.
  SegmentRef` and validate generation + blake2b digest on every bind.
  A failed check comes back as a structured error: the segment is
  quarantined, the artifact rebuilt from the cold path and
  republished, the request requeued — torn or poisoned bytes are
  never served.
* **supervision** — a :class:`~repro.serving.supervisor.
  ShardSupervisor` heartbeats every worker; crashes and stalls are
  detected (deadline-tiered: cooperative cancel, then SIGKILL) and the
  shard restarts under exponential backoff + a per-shard circuit
  breaker. The front door owns the authoritative in-flight table —
  queues are transport only — so every request of a dead incarnation
  is requeued (re-solved and **KKT re-checked** on arrival) or
  degraded to the reference solver. No request is ever silently lost.
* **coalescing** — same-structure requests co-batch through
  :class:`~repro.batch.coalescer.Coalescer` keyed by artifact cache
  key, so mixed fingerprints never co-batch and a batch never spans
  shards; :meth:`drain` flushes every queued lane before shutdown.
* **fault vocabulary** — ``worker-crash`` / ``worker-stall`` /
  ``shm-corrupt`` faults from a :class:`~repro.faults.FaultPlan` are
  turned into per-request directives, so ``python -m repro.faults``
  drives this lane deterministically.

Sync and async front doors share one pipeline: :meth:`submit` /
:meth:`result` / :meth:`solve` block on :class:`concurrent.futures.
Future`\\ s, while :meth:`solve_async` awaits the same future from any
asyncio event loop.

Graceful :meth:`close`: intake stops, coalesced batches flush, workers
get the shutdown sentinel and are reaped, shared-memory segments are
unlinked — no zombies, no leaked segments (asserted by the tests).
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
import zlib
from concurrent.futures import Future

from ..exceptions import ShardCrashedError, ShmIntegrityError
from ..experiments.runner import choose_width
from ..faults import ResiliencePolicy, solution_ok
from ..solver import OSQPSettings, available_algorithms, choose_algorithm
from .arch_cache import ArchCache, build_artifact
from .fingerprint import fingerprint_problem
from .metrics import MetricsRegistry, merge_counters
from .pool import WorkerPool, reference_job
from .service import ServeRecord, ServeResult
from .shm_store import ShmArtifactStore, attach_artifact
from .supervisor import SHUTDOWN, ShardSupervisor

__all__ = ["ShardedSolverService"]

#: Dispatch-queue sentinel: flush every coalesced group (drain path).
_FLUSH = object()

#: ServeRecord tier for requests answered by the parent's reference
#: fallback after their shard died (distinct from the cold-structure
#: ``fallback`` tier of the single-process service).
TIER_DEGRADED = "degraded"


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _heartbeat_loop(heartbeat, cancel_event, interval, state) -> None:
    """Touch the shared heartbeat; clearing ``cancel_event`` is the
    liveness acknowledgement to a supervisor soft-timeout poke. A
    ``worker-stall`` directive pauses updates via ``state`` so the
    supervisor's tiers see exactly the scheduled silence."""
    while not state["stop"]:
        now = time.time()
        if now >= state["pause_until"]:
            heartbeat.value = now
            if cancel_event.is_set():
                cancel_event.clear()
        time.sleep(interval)


def _shard_worker_main(index, generation, request_q, result_q,
                       heartbeat, cancel_event, config) -> None:
    """One shard: a serial :class:`SolverService` behind two queues.

    Module-level so every start method can spawn it. The worker never
    builds artifacts — it attaches the checksummed segment named in
    each batch message and binds it into its local cache under the
    parent's cache key (the parent verified the artifact before
    publishing, and ``verified`` rides along in the pickle, so solves
    skip re-verification). All messages are tagged with this
    incarnation's ``generation``; fault *directives* arrive per lane,
    already filtered to this request + attempt by the front door.
    """
    from .service import SolverService
    service = SolverService(
        c=config["c"], settings=config["settings"], workers=1,
        mode="serial", cache_capacity=config["cache_capacity"],
        cold_policy="build", pcg_eps=config["pcg_eps"],
        max_pcg_iter=config["max_pcg_iter"], backend=config["backend"],
        verify=config["verify"], fault_plan=config["fault_plan"],
        resilience=config["resilience"], algorithm=config["algorithm"],
        max_batch=config["max_batch"])
    state = {"stop": False, "pause_until": 0.0}
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat, cancel_event, config["heartbeat_interval"],
              state),
        name="rsqp-shard-heartbeat", daemon=True)
    beat.start()
    result_q.put(("hello", generation, os.getpid()))
    try:
        while True:
            try:
                msg = request_q.get(timeout=0.1)
            except queue.Empty:
                continue
            if msg == SHUTDOWN:
                break
            kind, body = msg
            if kind != "batch":  # pragma: no cover - protocol guard
                continue
            _serve_batch(service, state, generation, result_q, body)
    finally:
        state["stop"] = True
        try:
            result_q.put(("bye", generation, {
                "counters": service.metrics.snapshot()["counters"],
                "cache": service.cache_stats().as_dict(),
            }))
        except Exception:  # pragma: no cover - torn pipe at shutdown
            pass


def _serve_batch(service, state, generation, result_q, body) -> None:
    key, ref, lanes = body["key"], body["ref"], body["lanes"]
    if service.cache.peek(key) is None:
        try:
            artifact = attach_artifact(ref)
        except ShmIntegrityError as exc:
            # Fail closed: report every lane so the front door can
            # quarantine + rebuild + requeue. Nothing was solved.
            for lane in lanes:
                result_q.put(("error", generation, lane["rid"],
                              "shm-integrity", exc.reason, str(exc)))
            return
        service.cache.put(key, artifact)
    plain = (service.fault_plan is None
             and all(not lane["directives"] for lane in lanes))
    if plain and len(lanes) > 1:
        # One lockstep batched run; lane results are bitwise identical
        # to solo solves (repro.batch), so this is purely a throughput
        # move.
        try:
            results = service.solve_batch(
                [lane["problem"] for lane in lanes],
                warm_starts=[lane["warm_start"] for lane in lanes],
                deadlines=[lane["deadline_seconds"] for lane in lanes],
                request_ids=[lane["rid"] for lane in lanes])
        except Exception as exc:
            for lane in lanes:
                result_q.put(("error", generation, lane["rid"],
                              "exception", type(exc).__name__, str(exc)))
            return
        for lane, result in zip(lanes, results):
            result.raw = None  # backend-native result is not picklable
            result_q.put(("result", generation, lane["rid"], result))
        return
    for lane in lanes:
        for directive in lane["directives"]:
            if directive["kind"] == "worker-crash":
                # The scheduled SIGKILL: the request is in flight, the
                # supervisor must notice, restart, and the front door
                # must requeue every lane of this incarnation.
                os.kill(os.getpid(), signal.SIGKILL)
            elif directive["kind"] == "worker-stall":
                # Go silent: pause heartbeats and stop processing for
                # the scheduled duration. Whether this ends in a
                # cooperative recovery or a SIGKILL is the supervisor's
                # tiering decision, not ours.
                state["pause_until"] = time.time() + directive["duration"]
                time.sleep(directive["duration"])
        try:
            result = service.solve(
                lane["problem"], warm_start=lane["warm_start"],
                deadline=lane["deadline_seconds"],
                request_id=lane["rid"])
            result.raw = None
            result_q.put(("result", generation, lane["rid"], result))
        except Exception as exc:
            result_q.put(("error", generation, lane["rid"], "exception",
                          type(exc).__name__, str(exc)))


# ----------------------------------------------------------------------
# front door
# ----------------------------------------------------------------------
class ShardedSolverService:
    """Supervised worker shards behind one structure-routed front door.

    Parameters mirror :class:`~repro.serving.service.SolverService`
    where they configure the per-shard services (``c``, ``settings``,
    ``pcg_eps``, ``max_pcg_iter``, ``backend``, ``verify``,
    ``fault_plan``, ``resilience``, ``algorithm``); the rest shape the
    sharded deployment itself:

    shards:
        Worker process count. Structure keys route by crc32 modulo
        ``shards``; a request for an unroutable shard falls over to
        any live shard (artifacts travel by shared memory, so any
        shard can serve any structure).
    max_batch / max_linger:
        Coalescing bounds per (structure, shard) group.
    heartbeat_interval / soft_timeout / hard_timeout / restart_* /
    breaker_*:
        Supervision knobs, passed to
        :class:`~repro.serving.supervisor.ShardSupervisor`.
    route_wait_seconds:
        How long a flush may wait for *any* routable shard (restarts
        in progress) before its lanes degrade to the reference solver.
    """

    def __init__(self, shards: int = 2, *, c: int | None = None,
                 settings: OSQPSettings | None = None,
                 cache_capacity: int = 128, cache_path=None,
                 pcg_eps: float = 1e-7, max_pcg_iter: int = 500,
                 backend: str = "compiled", verify: bool = True,
                 fault_plan=None,
                 resilience: ResiliencePolicy | None = None,
                 algorithm: str = "auto",
                 max_batch: int = 8, max_linger: float = 0.003,
                 start_method: str | None = None,
                 heartbeat_interval: float = 0.05,
                 soft_timeout: float = 1.0, hard_timeout: float = 3.0,
                 restart_backoff_base: float = 0.05,
                 restart_backoff_max: float = 1.0,
                 breaker_threshold: int = 5,
                 breaker_reset_seconds: float = 30.0,
                 route_wait_seconds: float = 5.0):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if algorithm != "auto" and algorithm not in available_algorithms():
            raise ValueError(
                f"algorithm must be 'auto' or one of "
                f"{available_algorithms()}, got {algorithm!r}")
        self.shards = int(shards)
        self.c = c
        self.settings = settings if settings is not None else OSQPSettings()
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        self.backend = backend
        self.verify = bool(verify)
        self.fault_plan = fault_plan if fault_plan else None
        self.resilience = (resilience if resilience is not None
                           else ResiliencePolicy())
        self.algorithm = algorithm
        self.max_batch = int(max_batch)
        self.max_linger = float(max_linger)
        self.route_wait_seconds = float(route_wait_seconds)

        self.cache = ArchCache(capacity=cache_capacity, path=cache_path)
        self.metrics = MetricsRegistry()
        self.store = ShmArtifactStore()
        # Parent-side reference fallback for degraded requests.
        self._fallback_pool = WorkerPool(workers=2, mode="thread")

        from ..batch.coalescer import Coalescer
        self._coalescer = Coalescer(max_batch=self.max_batch,
                                    max_linger=self.max_linger)
        self._co_lock = threading.Lock()

        self._lock = threading.RLock()
        self._next_id = 0
        self._futures: dict[int, Future] = {}
        self._inflight: dict[int, dict] = {}
        self._records: dict[int, ServeRecord] = {}
        self._dispatch_q: queue.Queue = queue.Queue()
        self._intake_closed = False
        self._closed = False
        self._stop_dispatch = threading.Event()
        self._stop_collectors = threading.Event()
        self._collectors: list[threading.Thread] = []

        worker_config = {
            "c": c, "settings": self.settings, "pcg_eps": self.pcg_eps,
            "max_pcg_iter": self.max_pcg_iter, "backend": backend,
            "verify": self.verify, "fault_plan": self.fault_plan,
            "resilience": self.resilience, "algorithm": algorithm,
            "cache_capacity": int(cache_capacity),
            "max_batch": self.max_batch,
            "heartbeat_interval": float(heartbeat_interval),
        }
        self.supervisor = ShardSupervisor(
            self.shards, _shard_worker_main, worker_config,
            start_method=start_method,
            heartbeat_interval=heartbeat_interval,
            soft_timeout=soft_timeout, hard_timeout=hard_timeout,
            restart_backoff_base=restart_backoff_base,
            restart_backoff_max=restart_backoff_max,
            breaker_threshold=breaker_threshold,
            breaker_reset_seconds=breaker_reset_seconds,
            metrics=self.metrics,
            on_shard_up=self._on_shard_up,
            on_shard_down=self._on_shard_down)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="rsqp-shard-dispatch",
            daemon=True)
        self._dispatcher.start()
        self.supervisor.start()

    # ------------------------------------------------------------------
    # request lifecycle (sync + async front doors)
    # ------------------------------------------------------------------
    def width_for(self, problem) -> int:
        return self.c if self.c is not None else choose_width(problem.nnz)

    def cache_key(self, fingerprint, c: int,
                  algorithm: str = "admm") -> str:
        """Identical composition to :meth:`SolverService.cache_key`, so
        the parent's published segments land under the exact key the
        worker-side services compute for the same problem."""
        base = f"{fingerprint.key}:c{c}:pcg{self.max_pcg_iter}"
        return base if algorithm == "admm" else f"{base}:{algorithm}"

    def submit(self, problem, *, warm_start: tuple | None = None,
               deadline: float | None = None) -> int:
        """Enqueue one solve; returns a request id for :meth:`result`."""
        if self._intake_closed:
            raise RuntimeError("service is closed to new requests")
        if deadline is None:
            deadline = self.resilience.deadline_seconds
        now_epoch = time.time()
        with self._lock:
            rid = self._next_id
            self._next_id += 1
            future: Future = Future()
            entry = {
                "rid": rid, "problem": problem, "warm_start": warm_start,
                "deadline_epoch": (now_epoch + deadline
                                   if deadline is not None else None),
                "deadline_mono": (time.monotonic() + deadline
                                  if deadline is not None else None),
                "submitted_perf": time.perf_counter(),
                "attempt": 0, "key": None, "c": None,
                "fingerprint": None, "algorithm": None,
                "shard": None, "generation": None, "segment": None,
                "future": future,
            }
            self._futures[rid] = future
            self._inflight[rid] = entry
        self.metrics.counter("serving_requests_total").inc()
        self._dispatch_q.put(entry)
        return rid

    def result(self, request_id: int,
               timeout: float | None = None) -> ServeResult:
        """Block for a submitted request's result (re-entrant)."""
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown request id {request_id}")
        return future.result(timeout=timeout)

    def solve(self, problem, *, warm_start: tuple | None = None,
              timeout: float | None = None,
              deadline: float | None = None) -> ServeResult:
        """Synchronous convenience: submit + result."""
        return self.result(self.submit(problem, warm_start=warm_start,
                                       deadline=deadline),
                           timeout=timeout)

    async def solve_async(self, problem, *,
                          warm_start: tuple | None = None,
                          deadline: float | None = None) -> ServeResult:
        """Awaitable front door: same pipeline, asyncio-native waiting
        (``asyncio.gather`` over many of these keeps every shard busy
        without blocking the event loop)."""
        import asyncio
        rid = self.submit(problem, warm_start=warm_start,
                          deadline=deadline)
        with self._lock:
            future = self._futures[rid]
        return await asyncio.wrap_future(future)

    def solve_batch(self, problems, *, warm_starts=None, deadlines=None,
                    timeout: float | None = None) -> list[ServeResult]:
        """Submit many, wait for all; results in submission order."""
        problems = list(problems)
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        if deadlines is None:
            deadlines = [None] * len(problems)
        if not (len(warm_starts) == len(deadlines) == len(problems)):
            raise ValueError("per-request argument lists must match the "
                             "number of problems")
        rids = [self.submit(p, warm_start=w, deadline=dl)
                for p, w, dl in zip(problems, warm_starts, deadlines)]
        return [self.result(rid, timeout=timeout) for rid in rids]

    # ------------------------------------------------------------------
    # dispatcher (single thread: owns the coalescer and routing)
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop_dispatch.is_set():
            try:
                item = self._dispatch_q.get(timeout=0.01)
            except queue.Empty:
                item = None
            try:
                if item is _FLUSH:
                    with self._co_lock:
                        groups = self._coalescer.flush_all()
                    for key, entries in groups:
                        self._ship(key, entries, "drain")
                elif item is not None:
                    self._route(item)
                with self._co_lock:
                    due = self._coalescer.due()
                for key, entries in due:
                    self._ship(key, entries, "due")
            except Exception as exc:  # pragma: no cover - last resort
                if item is not None and item is not _FLUSH:
                    self._fail(item, exc)

    def _route(self, entry: dict) -> None:
        with self._lock:
            if self._inflight.get(entry["rid"]) is not entry:
                return  # already answered (e.g. degraded meanwhile)
        if entry["key"] is None:
            problem = entry["problem"]
            c = self.width_for(problem)
            fingerprint = fingerprint_problem(problem, c=c)
            algorithm = choose_algorithm(
                problem, override=None if self.algorithm == "auto"
                else self.algorithm)
            entry.update(key=self.cache_key(fingerprint, c, algorithm),
                         c=c, fingerprint=fingerprint,
                         algorithm=algorithm)
        try:
            self._ensure_published(entry)
        except Exception as exc:
            self._fail(entry, exc)
            return
        plan = self.fault_plan
        if (plan is not None and entry["attempt"] == 0
                and not entry.get("corrupted")
                and plan.shm_corrupts_for(entry["rid"])):
            # Scheduled shm-corrupt: flip payload bytes in place; the
            # worker's checksum validation must catch it on attach.
            entry["corrupted"] = True
            if self.store.corrupt(entry["key"]):
                self.metrics.counter(
                    "serving_shm_corrupt_injected_total").inc()
        with self._co_lock:
            full = self._coalescer.offer(entry["key"], entry,
                                         deadline_at=entry["deadline_mono"])
        if full is not None:
            self._ship(entry["key"], full, "full")

    def _ensure_published(self, entry: dict) -> None:
        """Build (once) + verify + publish the entry's artifact."""
        key = entry["key"]
        if self.store.ref(key) is not None:
            return
        problem, fingerprint = entry["problem"], entry["fingerprint"]
        c, algorithm = entry["c"], entry["algorithm"]

        def builder():
            return build_artifact(
                problem, c, self.cache, fingerprint=fingerprint, key=key,
                max_admm_iter=self.settings.max_iter,
                max_pcg_iter=self.max_pcg_iter, metrics=self.metrics,
                algorithm=algorithm)

        artifact, was_hit = self.cache.get_or_build(key, builder)
        self.metrics.counter(
            "serving_cache_hits_total" if was_hit
            else "serving_cache_misses_total").inc()
        if self.verify:
            from ..exceptions import VerificationError
            from ..verify import ensure_artifact_verified
            try:
                ensure_artifact_verified(artifact, context=key)
            except VerificationError:
                self.metrics.counter("serving_verify_rejects_total").inc()
                self.cache.invalidate(key)
                artifact, _ = self.cache.get_or_build(key, builder)
                ensure_artifact_verified(artifact, context=key)
                self.metrics.counter(
                    "serving_artifact_rebuilds_total").inc()
        self.store.publish(key, artifact)
        self.metrics.counter("serving_shm_publishes_total").inc()

    def _pick_shard(self, key: str) -> int | None:
        """Structure-affine routing with live-shard fallback."""
        preferred = zlib.crc32(key.encode()) % self.shards
        deadline = time.monotonic() + self.route_wait_seconds
        while not self._stop_dispatch.is_set():
            routable = self.supervisor.routable_indices()
            if routable:
                if preferred in routable:
                    return preferred
                return routable[preferred % len(routable)]
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.01)
        return None

    def _ship(self, key: str, entries: list, reason: str) -> None:
        self.metrics.counter("serving_batch_flushes_total",
                             labels={"reason": reason}).inc()
        live = []
        now = time.time()
        for entry in entries:
            if (entry["deadline_epoch"] is not None
                    and now >= entry["deadline_epoch"]):
                # Expired while queued: degrade, never drop silently.
                self.metrics.counter("serving_deadline_misses_total").inc()
                self._degrade(entry, "deadline", expired=True)
            else:
                live.append(entry)
        if not live:
            return
        index = self._pick_shard(key)
        if index is None:
            for entry in live:
                self._degrade(entry, "no-routable-shard")
            return
        handle = self.supervisor.handle(index)
        if handle is None:
            for entry in live:
                self._retry_or_degrade(entry, "shard-vanished")
            return
        plan = self.fault_plan
        ref = self.store.ref(key)
        lanes = []
        with self._lock:
            for entry in live:
                if self._inflight.get(entry["rid"]) is not entry:
                    continue
                entry["shard"] = index
                entry["generation"] = handle.generation
                # The shm segment generation this attempt attaches.
                entry["segment"] = (ref.generation if ref is not None
                                    else None)
                directives = [
                    {"kind": f.kind, "duration": f.duration}
                    for f in (plan.process_faults_for(
                        entry["rid"], entry["attempt"])
                        if plan is not None else [])]
                remaining = None
                if entry["deadline_epoch"] is not None:
                    remaining = max(entry["deadline_epoch"] - time.time(),
                                    1e-3)
                lanes.append({"rid": entry["rid"],
                              "problem": entry["problem"],
                              "warm_start": entry["warm_start"],
                              "deadline_seconds": remaining,
                              "directives": directives,
                              "attempt": entry["attempt"]})
        if not lanes:
            return
        message = ("batch", {"key": key, "ref": ref, "lanes": lanes})
        try:
            handle.request_q.put(message)
        except Exception:
            for entry in live:
                self._retry_or_degrade(entry, "enqueue-failed")
            return
        self.metrics.histogram("serving_batch_width").observe(len(lanes))

    # ------------------------------------------------------------------
    # collectors + completion paths
    # ------------------------------------------------------------------
    def _on_shard_up(self, handle) -> None:
        collector = threading.Thread(
            target=self._collector_loop, args=(handle,),
            name=f"rsqp-shard-collect-{handle.index}-g{handle.generation}",
            daemon=True)
        collector.start()
        self._collectors.append(collector)

    def _collector_loop(self, handle) -> None:
        while not self._stop_collectors.is_set():
            try:
                msg = handle.result_q.get(timeout=0.2)
            except queue.Empty:
                if not handle.alive:
                    # Incarnation is gone; drain stragglers and exit
                    # (the supervisor's on_shard_down already requeued
                    # whatever never produced a result).
                    while True:
                        try:
                            msg = handle.result_q.get_nowait()
                        except Exception:
                            return
                        self._on_message(handle, msg)
                continue
            except (OSError, ValueError, EOFError):
                return  # queue discarded under us — incarnation is dead
            self._on_message(handle, msg)
            if msg and msg[0] == "bye":
                return

    def _on_message(self, handle, msg) -> None:
        try:
            kind = msg[0]
            if kind == "result":
                _, generation, rid, result = msg
                self._complete(rid, result)
            elif kind == "error":
                _, generation, rid, ekind, detail, text = msg
                self._on_error(handle, rid, ekind, detail, text)
            elif kind == "bye":
                _, generation, stats = msg
                merge_counters(self.metrics, stats.get("counters", {}),
                               extra_labels={"shard": str(handle.index)})
        except Exception:  # pragma: no cover - collector must survive
            pass

    def _complete(self, rid: int, result: ServeResult) -> None:
        with self._lock:
            entry = self._inflight.get(rid)
            if entry is None:
                return  # late duplicate after a requeue already answered
            del self._inflight[rid]
        if entry["attempt"] > 0:
            # A requeued request's answer is re-checked on the host —
            # the crash/restart path must uphold the same zero-silent-
            # corruption guarantee as a clean solve.
            if not solution_ok(entry["problem"], result.x, result.y,
                               result.z,
                               eps_abs=self.settings.eps_abs,
                               eps_rel=self.settings.eps_rel,
                               factor=self.resilience.check_factor):
                self.metrics.counter(
                    "serving_silent_corruption_total").inc()
                with self._lock:
                    self._inflight[rid] = entry
                self._retry_or_degrade(entry, "kkt-recheck")
                return
        record = result.record
        record.retries += entry["attempt"]
        with self._lock:
            self._records[rid] = record
        self.metrics.histogram("serving_e2e_seconds").observe(
            time.perf_counter() - entry["submitted_perf"])
        entry["future"].set_result(result)

    def _on_error(self, handle, rid: int, ekind: str, detail: str,
                  text: str) -> None:
        with self._lock:
            entry = self._inflight.get(rid)
        if entry is None:
            return
        if ekind == "shm-integrity":
            # The checksummed segment failed validation in the worker:
            # quarantine it, drop the parent's in-memory copy, and
            # requeue — the next route rebuilds from the cold path and
            # republishes under a bumped generation. An error against a
            # generation already quarantined (another shard attached it
            # too) leaves the republished segment alone.
            self.metrics.counter(
                "serving_shm_checksum_failures_total",
                labels={"reason": detail}).inc()
            key = entry["key"]
            if key is not None and self.store.quarantine(
                    key, entry.get("segment")):
                self.cache.invalidate(key)
                self.metrics.counter("serving_shm_rebuilds_total").inc()
            self._retry_or_degrade(entry, f"shm-{detail}")
        else:
            self._retry_or_degrade(entry, f"worker-{detail}")

    def _on_shard_down(self, handle, reason: str) -> None:
        """Supervisor callback: requeue the dead incarnation's work."""
        with self._lock:
            victims = [entry for entry in self._inflight.values()
                       if entry.get("shard") == handle.index
                       and entry.get("generation") == handle.generation]
        for entry in victims:
            self._retry_or_degrade(entry, reason)

    def _retry_or_degrade(self, entry: dict, reason: str) -> None:
        with self._lock:
            if self._inflight.get(entry["rid"]) is not entry:
                return
            previous_shard = entry.get("shard")
            entry["attempt"] += 1
            entry["shard"] = None
            entry["generation"] = None
            attempt = entry["attempt"]
        expired = (entry["deadline_epoch"] is not None
                   and time.time() >= entry["deadline_epoch"])
        if expired or attempt > self.resilience.max_retries:
            self._degrade(entry, reason, expired=expired)
            return
        self.metrics.counter(
            "serving_shard_requeues_total",
            labels={"shard": str(previous_shard)
                    if previous_shard is not None else "unrouted"}).inc()
        self._dispatch_q.put(entry)

    def _degrade(self, entry: dict, reason: str,
                 expired: bool = False) -> None:
        if not self.resilience.degrade:
            self._fail(entry, ShardCrashedError(
                f"request {entry['rid']} lost to {reason} and the "
                "resilience policy does not degrade"))
            return

        def run():
            rid = entry["rid"]
            try:
                raw = reference_job(entry["problem"], self.settings,
                                    entry["warm_start"],
                                    entry.get("algorithm") or "admm")
                if not solution_ok(entry["problem"], raw.x, raw.y, raw.z,
                                   eps_abs=self.settings.eps_abs,
                                   eps_rel=self.settings.eps_rel,
                                   factor=self.resilience.check_factor):
                    # The reference answer is the last resort either
                    # way, but a KKT violation is still accounted.
                    self.metrics.counter(
                        "serving_silent_corruption_total").inc()
                total = time.perf_counter() - entry["submitted_perf"]
                fingerprint = entry.get("fingerprint")
                record = ServeRecord(
                    request_id=rid,
                    problem_name=entry["problem"].name,
                    fingerprint_key=(fingerprint.key
                                     if fingerprint is not None else ""),
                    c=entry.get("c") or 0,
                    architecture="", tier=TIER_DEGRADED,
                    backend="reference",
                    algorithm=entry.get("algorithm") or "admm",
                    solve_seconds=total, total_seconds=total,
                    admm_iterations=raw.info.iterations,
                    converged=raw.status.is_optimal,
                    retries=entry["attempt"], degraded=True,
                    deadline_missed=expired)
                with self._lock:
                    self._inflight.pop(rid, None)
                    self._records[rid] = record
                self.metrics.counter("serving_degraded_total").inc()
                entry["future"].set_result(ServeResult(
                    x=raw.x, y=raw.y, z=raw.z,
                    converged=raw.status.is_optimal,
                    backend="reference", record=record, raw=None))
            except Exception as exc:  # pragma: no cover - last resort
                self._fail(entry, exc)

        self._fallback_pool.submit(run)

    def _fail(self, entry: dict, exc: BaseException) -> None:
        with self._lock:
            self._inflight.pop(entry["rid"], None)
        if not entry["future"].done():
            entry["future"].set_exception(exc)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def records(self) -> list[ServeRecord]:
        with self._lock:
            return [self._records[i] for i in sorted(self._records)]

    def stats(self) -> dict:
        with self._lock:
            inflight = len(self._inflight)
        return {"inflight": inflight,
                "supervisor": self.supervisor.stats(),
                "store": self.store.stats(),
                "cache": self.cache.stats().as_dict()}

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats().as_dict()
        snap["store"] = self.store.stats()
        return snap

    # ------------------------------------------------------------------
    # drain + close
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> None:
        """Stop intake, flush every coalesced group, wait for every
        in-flight request (including requeues triggered *during* the
        drain). Raises :class:`TimeoutError` with the outstanding count
        rather than returning with work still in flight."""
        self._intake_closed = True
        self._dispatch_q.put(_FLUSH)
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = len(self._inflight)
            with self._co_lock:
                queued = self._coalescer.pending
            if pending == 0 and queued == 0 and self._dispatch_q.empty():
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"drain timed out after {timeout:.3g}s with "
                    f"{pending} request(s) still in flight")
            time.sleep(0.01)

    def close(self, timeout: float = 60.0) -> None:
        """Graceful shutdown: drain, stop workers (sentinel → join →
        kill), reap every child, unlink every shared-memory segment.
        Idempotent. Requests still unanswerable after the drain budget
        fail with :class:`~repro.exceptions.ShardCrashedError` — never
        silently dropped."""
        if self._closed:
            return
        self._closed = True
        drain_error = None
        try:
            self.drain(timeout=timeout)
        except TimeoutError as exc:
            drain_error = exc
        self._stop_dispatch.set()
        self._dispatcher.join(timeout=5.0)
        with self._lock:
            leftovers = list(self._inflight.values())
        for entry in leftovers:
            self._fail(entry, ShardCrashedError(
                f"request {entry['rid']} still in flight when the "
                "service closed"))
        self.supervisor.drain(timeout=max(timeout / 2.0, 5.0))
        self._stop_collectors.set()
        for collector in self._collectors:
            collector.join(timeout=2.0)
        if self.cache.path is not None:
            self.cache.save()
        self._fallback_pool.shutdown()
        self.store.close()
        if drain_error is not None:
            raise drain_error

    def __enter__(self) -> "ShardedSolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
