"""Resident accelerator pool: the warm ``solve()`` path.

A warm hit leases a machine bound to the cached artifact, refreshes its
numeric data in place and re-runs it. The invariants under test:

* the answer is bitwise the one a freshly built accelerator
  (``solve_job``) gives, for both algorithms and both backends, with and
  without a warm start;
* concurrent requests on one key never hold the same machine at once;
* a machine bound to a replaced (poisoned) artifact never answers again;
* a machine whose attempt faulted or ran out of time is dropped;
* LRU eviction drops the evicted key's machines;
* process mode keeps binding a fresh accelerator per attempt;
* after warm-up a repeated-structure stream binds nothing.
"""

import sys
import threading
import time

import pytest

from repro.faults import Fault, FaultPlan, ResiliencePolicy
from repro.hw.accelerator import RSQPAccelerator
from repro.problems import generate_lasso, generate_svm, perturb_numeric
from repro.serving import SolverService, solve_job
from repro.serving.pool import Resident
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)

BINDS = "serving_accelerator_binds_total"


def discards(reason):
    return f'serving_resident_discards_total{{reason="{reason}"}}'


def service(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "serial")
    return SolverService(**kwargs)


def counters(svc):
    return svc.metrics_snapshot()["counters"]


def key_of(svc, problem):
    return svc._route(problem)[3]


def assert_bitwise(result, raw):
    assert result.x.tobytes() == raw.x.tobytes()
    assert result.y.tobytes() == raw.y.tobytes()
    assert result.z.tobytes() == raw.z.tobytes()
    assert result.record.admm_iterations == raw.admm_iterations
    assert result.record.simulated_cycles == raw.total_cycles


@pytest.fixture
def runs(monkeypatch):
    """Record ``(resident, injector, raised)`` for every resident run."""
    log = []
    real = Resident.run

    def spy(self, warm_start=None, injector=None, deadline_seconds=None):
        try:
            raw = real(self, warm_start, injector, deadline_seconds)
        except BaseException:
            log.append((self, injector, True))
            raise
        log.append((self, injector, False))
        return raw

    monkeypatch.setattr(Resident, "run", spy)
    return log


@pytest.mark.parametrize("backend", ["compiled", "interpret"])
@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_warm_hit_equals_fresh_solve_job(backend, algorithm, warm):
    base = generate_lasso(8, seed=0)
    with service(backend=backend, algorithm=algorithm) as svc:
        first = svc.solve(base)
        artifact = svc.cache.peek(key_of(svc, base))
        for seed in (1, 2, 3):
            problem = perturb_numeric(base, seed=seed)
            start = (first.x, first.y) if warm else None
            result = svc.solve(problem, warm_start=start)
            assert result.record.tier == "hit"
            assert_bitwise(result, solve_job(
                problem, artifact, SETTINGS, start, svc.pcg_eps, backend,
                verify=False))
        assert counters(svc)[BINDS] == 1


def test_threads_on_one_key_never_share_a_machine(monkeypatch):
    held, lock, overlaps = set(), threading.Lock(), []
    real = Resident.run

    def exclusive(self, *args, **kwargs):
        with lock:
            if id(self) in held:
                overlaps.append(id(self))
            held.add(id(self))
        try:
            time.sleep(0.002)       # widen the window for a collision
            return real(self, *args, **kwargs)
        finally:
            with lock:
                held.discard(id(self))

    base = generate_svm(10, seed=0)
    problems = [perturb_numeric(base, seed=s) for s in range(16)]
    monkeypatch.setattr(Resident, "run", exclusive)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # more thread switches, more races
    try:
        with service(workers=4, mode="thread") as svc:
            svc.solve(base)
            ids = [svc.submit(p) for p in problems]
            results = [svc.result(i, timeout=300) for i in ids]
            artifact = svc.cache.peek(key_of(svc, base))
            assert len(svc.cache._idle[key_of(svc, base)]) <= 4
    finally:
        sys.setswitchinterval(interval)
    assert not overlaps
    for problem, result in zip(problems, results):
        assert result.record.tier == "hit"
        assert_bitwise(result, solve_job(problem, artifact, SETTINGS,
                                         verify=False))


def test_poison_rebuild_never_answers_from_the_replaced_artifact(runs):
    base = generate_lasso(8, seed=2)
    plan = FaultPlan(faults=(Fault(kind="artifact-poison", request=2),))
    with service(fault_plan=plan) as svc:
        key = key_of(svc, base)
        svc.solve(base)                                  # 0: build
        svc.solve(perturb_numeric(base, seed=1))         # 1: hit
        replaced = svc.cache.peek(key)
        (pooled,) = svc.cache._idle[key]
        assert pooled.artifact is replaced
        del runs[:]
        result = svc.solve(perturb_numeric(base, seed=2))  # 2: poisoned
        fresh = svc.cache.peek(key)
        assert fresh is not replaced
        assert result.record.faults_injected == 1
        assert [r.artifact for r, _, _ in runs] == [fresh]
        assert runs[0][0] is not pooled
        assert runs[0][0].accelerator.compiled is fresh.compiled
        assert [r.artifact for r in svc.cache._idle[key]] == [fresh]
        assert counters(svc)[discards("invalidated")] == 1


def test_faulted_attempt_discards_its_machine(runs):
    base = generate_lasso(8, seed=0)
    plan = FaultPlan.generate(seed=7, requests=8, mac_rate=1.0,
                              poisons=0, stalls=0)
    with service(fault_plan=plan, resilience=ResiliencePolicy(
            max_retries=3, backoff_base_seconds=0.0)) as svc:
        key = key_of(svc, base)
        for seed in range(8):
            svc.solve(perturb_numeric(base, seed=seed))
        spoiling = [i for i, (_, injector, raised) in enumerate(runs)
                    if raised or (injector is not None and injector.events)]
        assert spoiling                                  # the plan fired
        for i in spoiling:
            resident = runs[i][0]
            assert resident.spoiled == "fault"
            assert resident not in svc.cache._idle.get(key, [])
            # ...and it never ran again.
            assert all(r is not resident for r, _, _ in runs[i + 1:])
        assert counters(svc)[discards("fault")] == len(spoiling)


def test_deadline_expired_attempt_discards_its_machine(monkeypatch):
    base = generate_lasso(8, seed=0)
    with service(algorithm="admm") as svc:
        key = key_of(svc, base)
        svc.solve(base)
        (pooled,) = svc.cache._idle[key]
        real = RSQPAccelerator._run_program

        def slow(self, program):
            time.sleep(0.2)
            return real(self, program)

        monkeypatch.setattr(RSQPAccelerator, "_run_program", slow)
        late = svc.solve(perturb_numeric(base, seed=1), deadline=0.1)
        monkeypatch.undo()
        assert late.record.deadline_missed and late.record.degraded
        assert pooled.spoiled == "deadline"
        assert key not in svc.cache._idle or not svc.cache._idle[key]
        assert counters(svc)[discards("deadline")] == 1
        binds = counters(svc)[BINDS]
        svc.solve(perturb_numeric(base, seed=2))
        assert counters(svc)[BINDS] == binds + 1


def test_lru_eviction_drops_the_keys_machines():
    first, second = generate_lasso(8, seed=0), generate_svm(10, seed=0)
    with service(cache_capacity=1) as svc:
        svc.solve(first)
        assert len(svc.cache._idle[key_of(svc, first)]) == 1
        svc.solve(second)
        assert key_of(svc, first) not in svc.cache._idle
        assert counters(svc)[discards("evicted")] == 1


def test_process_mode_binds_a_fresh_accelerator_per_attempt():
    base = generate_lasso(8, seed=0)
    problems = [perturb_numeric(base, seed=s) for s in (1, 2)]
    with service(mode="process") as svc:
        svc.solve(base)
        results = [svc.solve(p) for p in problems]
        artifact = svc.cache.peek(key_of(svc, base))
        assert counters(svc)[BINDS] == 3
        assert not svc.cache._idle
    for problem, result in zip(problems, results):
        assert_bitwise(result, solve_job(problem, artifact, SETTINGS,
                                         verify=False))


def test_repeated_structure_stream_binds_once_per_structure():
    bases = [generate_lasso(8, seed=0), generate_svm(10, seed=0)]
    with service(algorithm="admm") as svc:
        for base in bases:
            svc.solve(base)
        warm = counters(svc)[BINDS]
        assert warm == len(bases)
        for seed in range(6):
            for base in bases:
                svc.solve(perturb_numeric(base, seed=seed))
        snap = counters(svc)
        assert snap[BINDS] == warm                       # zero per request
        assert not any(name.startswith("serving_resident_discards")
                       for name in snap)


def test_session_is_a_pinned_lease():
    base = generate_lasso(8, seed=0)
    with service() as svc:
        key = key_of(svc, base)
        svc.solve(base)
        (pooled,) = svc.cache._idle[key]
        with svc.open_session(base) as sess:
            assert sess._resident is pooled             # leased, not bound
            assert key not in svc.cache._idle or not svc.cache._idle[key]
            sess.resolve()
        assert svc.cache._idle[key] == [pooled]         # handed back
        assert counters(svc)[BINDS] == 1


def test_answers_keep_their_own_stats():
    base = generate_lasso(8, seed=0)
    with service() as svc:
        first = svc.solve(base)
        cycles = first.raw.stats.total_cycles
        svc.solve(perturb_numeric(base, seed=1))
        assert first.raw.stats.total_cycles == cycles
        assert first.raw.stats.total_cycles == first.record.simulated_cycles


def test_solve_keeps_the_record_not_the_future():
    base = generate_lasso(8, seed=0)
    with service() as svc:
        answer = svc.solve(base)
        assert not svc._futures
        assert svc.records()[-1] is answer.record
        request_id = svc.submit(perturb_numeric(base, seed=1))
        assert svc.result(request_id) is svc.result(request_id)
