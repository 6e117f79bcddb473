"""Crash-tolerant sharded serving, end to end over real worker
processes: routing and lockstep batching, deterministic
SIGKILL-mid-solve recovery, shm corruption detection + rebuild,
cooperative stall recovery, asyncio front door, and leak-free drain
(no orphan segments, no zombie children)."""

import asyncio
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.faults import Fault, FaultPlan
from repro.problems import generate_lasso, generate_svm, perturb_numeric
from repro.serving import ShardedSolverService
from repro.serving.sharded import TIER_DEGRADED
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)

#: Constructor defaults tuned for test latency: fast heartbeats, fast
#: restarts. Semantics under test are identical to production values.
FAST = dict(settings=SETTINGS, heartbeat_interval=0.02,
            soft_timeout=0.5, hard_timeout=3.0,
            restart_backoff_base=0.02, restart_backoff_max=0.1)


def _workload(repeats=3, seed=0):
    """``2 * repeats`` problems across two structures, interleaved."""
    svm = generate_svm(10, seed=seed)
    lasso = generate_lasso(8, seed=seed)
    problems = []
    for rep in range(repeats):
        for template in (svm, lasso):
            problems.append(template if rep == 0 else
                            perturb_numeric(template, seed=seed + rep))
    return problems


def _assert_clean_teardown(service, namespace):
    """After close: no mp children, no zombies, nothing in /dev/shm."""
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and \
            time.monotonic() < deadline:
        time.sleep(0.02)
    assert multiprocessing.active_children() == []
    # A zombie child would be reaped (pid > 0) right here; pid == 0
    # means every remaining child (e.g. the resource tracker) is live.
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        assert pid == 0
    except ChildProcessError:
        pass  # no children at all — also clean
    assert service.store.segment_names() == []
    shm_dir = pathlib.Path("/dev/shm")
    if shm_dir.is_dir():
        leaked = [p.name for p in shm_dir.iterdir()
                  if p.name.lstrip("/").startswith(namespace)]
        assert leaked == []


class TestCleanPath:
    def test_solve_batch_round_trip_and_drain(self):
        problems = _workload(repeats=3)
        service = ShardedSolverService(shards=2, **FAST)
        namespace = service.store.namespace
        try:
            results = service.solve_batch(problems, timeout=120.0)
            assert all(r.converged for r in results)
            assert {r.backend for r in results} == {"rsqp"}
            for problem, result in zip(problems, results):
                assert problem.primal_residual(result.x) < 1e-2
            # Two structures -> two published segments, zero rebuilds.
            store = service.stats()["store"]
            assert store["publishes"] == 2
            assert store["quarantines"] == 0
            assert service.stats()["supervisor"]["restarts"] == [0, 0]
            # raw backend payloads never cross the process boundary.
            assert all(r.raw is None for r in results)
        finally:
            service.close(timeout=60.0)
        _assert_clean_teardown(service, namespace)

    def test_same_structure_requests_co_batch(self):
        # One structure, many numeric variants, generous linger: the
        # stream coalesces into lockstep batches wider than 1.
        svm = generate_svm(10, seed=0)
        problems = [svm] + [perturb_numeric(svm, seed=i)
                            for i in range(1, 6)]
        with ShardedSolverService(shards=1, max_batch=4,
                                  max_linger=0.2, **FAST) as service:
            results = service.solve_batch(problems, timeout=120.0)
            assert all(r.converged for r in results)
            assert max(r.record.batch_width for r in results) > 1

    def test_mixed_fingerprints_never_co_batch(self):
        # Interleaved structures under a linger long enough to batch
        # everything: each batch still holds exactly one fingerprint.
        problems = _workload(repeats=3)
        with ShardedSolverService(shards=2, max_batch=8,
                                  max_linger=0.2, **FAST) as service:
            results = service.solve_batch(problems, timeout=120.0)
            assert all(r.converged for r in results)
            # Group by fingerprint: within one batch every member
            # shares the record's fingerprint key, so a mixed batch
            # would show two keys at one (shard, width>1) shipment.
            widths = {}
            for result in results:
                widths.setdefault(result.record.fingerprint_key,
                                  []).append(result.record.batch_width)
            assert len(widths) == 2  # both structures served
            # Each structure was submitted 3x; no batch can be wider.
            assert all(w <= 3 for ws in widths.values() for w in ws)

    def test_shard_workers_bind_once_per_structure(self):
        # Solo requests (max_batch=1) on two structures: each shard
        # worker keeps its resident machines, so after the warm-up the
        # merged per-shard bind counters stay at one per structure.
        templates = (generate_svm(10, seed=0), generate_lasso(8, seed=0))
        service = ShardedSolverService(shards=2, max_batch=1, **FAST)
        try:
            for template in templates:
                service.solve(template, timeout=120.0)
            perturbed = [perturb_numeric(t, seed=s)
                         for s in range(1, 7) for t in templates]
            results = service.solve_batch(perturbed, timeout=120.0)
            assert all(r.converged for r in results)
        finally:
            service.close(timeout=60.0)
        counters = service.metrics_snapshot()["counters"]
        binds = {sample: value for sample, value in counters.items()
                 if sample.startswith("serving_accelerator_binds_total{")}
        assert binds and all('shard="' in sample for sample in binds)
        assert sum(binds.values()) == len(templates)

    def test_submit_after_close_raises(self):
        service = ShardedSolverService(shards=1, **FAST)
        service.close(timeout=60.0)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(generate_svm(10, seed=0))
        service.close(timeout=60.0)  # idempotent

    def test_unknown_request_id(self):
        with ShardedSolverService(shards=1, **FAST) as service:
            with pytest.raises(KeyError):
                service.result(999)


class TestAsyncFrontDoor:
    def test_solve_async_gather(self):
        problems = _workload(repeats=2)

        async def run(service):
            return await asyncio.gather(
                *(service.solve_async(p) for p in problems))

        with ShardedSolverService(shards=2, **FAST) as service:
            results = asyncio.run(run(service))
            assert all(r.converged for r in results)
            assert len(results) == len(problems)


class TestCrashRecovery:
    def test_sigkill_mid_solve_restarts_and_completes(self):
        # Deterministic: request 2 carries a worker-crash directive —
        # its worker SIGKILLs itself mid-batch. The supervisor must
        # detect, restart within the backoff budget, and every
        # in-flight request of the dead incarnation must complete
        # (retried on the accelerator or explicitly degraded) with its
        # KKT residuals re-checked. Nothing is silently lost.
        plan = FaultPlan(seed=1, faults=(
            Fault(kind="worker-crash", request=2),))
        problems = _workload(repeats=3)
        service = ShardedSolverService(shards=2, fault_plan=plan, **FAST)
        namespace = service.store.namespace
        try:
            t0 = time.monotonic()
            results = service.solve_batch(problems, timeout=120.0)
            elapsed = time.monotonic() - t0
            # Availability: every request answered.
            assert len(results) == len(problems)
            for problem, result in zip(problems, results):
                assert result.converged
                assert problem.primal_residual(result.x) < 1e-2
            # The victim (and any co-batched bystanders) retried.
            assert results[2].record.retries >= 1
            assert sum(r.record.retries for r in results) >= 1
            stats = service.stats()
            assert sum(stats["supervisor"]["restarts"]) >= 1
            # Restarted within the backoff budget, not the deadline's.
            assert elapsed < 60.0
            counters = service.metrics_snapshot()["counters"]
            assert sum(v for k, v in counters.items()
                       if k.startswith("serving_shard_restarts_total")) >= 1
            assert sum(v for k, v in counters.items()
                       if k.startswith("serving_shard_requeues_total")) >= 1
            # Zero silent corruption: the KKT re-check never tripped
            # on a retried result it had to reject terminally.
            assert not any(k.startswith("serving_silent_corruption")
                           and v > 0 for k, v in counters.items())
            # The fleet healed: every shard is live again.
            assert sorted(service.supervisor.routable_indices()) == [0, 1]
        finally:
            service.close(timeout=60.0)
        _assert_clean_teardown(service, namespace)

    def test_worker_stall_recovers_cooperatively(self):
        # A stall shorter than the hard timeout suspends heartbeats:
        # the supervisor counts a miss and pokes cancel, the worker
        # resumes, and no restart happens.
        plan = FaultPlan(seed=2, faults=(
            Fault(kind="worker-stall", request=1, duration=0.9),))
        problems = _workload(repeats=2)
        with ShardedSolverService(shards=2, fault_plan=plan,
                                  settings=SETTINGS,
                                  heartbeat_interval=0.02,
                                  soft_timeout=0.25, hard_timeout=5.0,
                                  restart_backoff_base=0.02) as service:
            results = service.solve_batch(problems, timeout=120.0)
            assert all(r.converged for r in results)
            stats = service.stats()["supervisor"]
            assert sum(stats["heartbeat_misses"]) >= 1
            assert sum(stats["restarts"]) == 0

    def test_degraded_fallback_when_retries_exhausted(self):
        # A persistent crash directive (EVERY_ATTEMPT) kills every
        # incarnation that touches the request: the accelerator path
        # can never finish it, so the front door must degrade to the
        # in-process reference solver rather than lose the request.
        from repro.faults.plan import EVERY_ATTEMPT
        plan = FaultPlan(seed=3, faults=(
            Fault(kind="worker-crash", request=0, attempt=EVERY_ATTEMPT),))
        problem = generate_svm(10, seed=0)
        with ShardedSolverService(shards=1, fault_plan=plan,
                                  **FAST) as service:
            result = service.solve(problem, timeout=120.0)
            assert result.record.degraded
            assert result.record.tier == TIER_DEGRADED
            assert result.backend == "reference"
            assert result.converged
            assert problem.primal_residual(result.x) < 1e-2
            counters = service.metrics_snapshot()["counters"]
            assert counters.get("serving_degraded_total", 0) >= 1


class TestShmCorruption:
    def test_corrupt_segment_detected_quarantined_rebuilt(self):
        # Request 0's segment is corrupted in place before its batch
        # ships. The worker's checksum must fail closed, the segment
        # is quarantined + rebuilt from the cold path, and the request
        # still completes on the accelerator — corrupt bytes are never
        # deserialized, let alone served.
        plan = FaultPlan(seed=4, faults=(
            Fault(kind="shm-corrupt", request=0),))
        problems = _workload(repeats=2)
        service = ShardedSolverService(shards=2, fault_plan=plan, **FAST)
        namespace = service.store.namespace
        try:
            results = service.solve_batch(problems, timeout=120.0)
            assert all(r.converged for r in results)
            for problem, result in zip(problems, results):
                assert problem.primal_residual(result.x) < 1e-2
            store = service.stats()["store"]
            assert store["quarantines"] == 1
            # 2 structures + 1 republish after the quarantine.
            assert store["publishes"] == 3
            counters = service.metrics_snapshot()["counters"]
            assert sum(v for k, v in counters.items() if k.startswith(
                "serving_shm_checksum_failures_total")) >= 1
            assert counters.get("serving_shm_rebuilds_total", 0) >= 1
            # No restart needed: integrity failures are handled by
            # quarantine + requeue, not by killing the worker.
            assert service.stats()["supervisor"]["restarts"] == [0, 0]
        finally:
            service.close(timeout=60.0)
        _assert_clean_teardown(service, namespace)


class TestValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardedSolverService(shards=0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            ShardedSolverService(shards=1, algorithm="simplex")
