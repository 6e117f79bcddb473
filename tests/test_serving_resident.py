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
* after warm-up a repeated-structure stream binds nothing.

``solve_batch()`` groups and batch sessions lease batched residents,
keyed by lane count, under the same rules: a refreshed group answers
bitwise like a fresh ``solve_batch_job``, a group that froze a lane or
carried an armed injector never returns its machine to the pool, and
a repeated burst stream binds once per (structure, width).
"""

import sys
import threading
import time

import pytest

from repro.faults import Fault, FaultPlan, ResiliencePolicy
from repro.hw.driver import SegmentDriver
from repro.problems import generate_lasso, generate_svm, perturb_numeric
from repro.batch import solve_batch_job
from repro.serving import SolverService, solve_job
from repro.serving.pool import BatchResident, Resident
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
        real = SegmentDriver.run_program

        def slow(self, *args):
            time.sleep(0.2)
            return real(self, *args)

        monkeypatch.setattr(SegmentDriver, "run_program", slow)
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


# -- batched residents: the solve_batch() and batch-session front doors --

def batch_stream(base, seeds):
    return [perturb_numeric(base, seed=s) for s in seeds]


def batch_idle(svc, key, width):
    return [r for r in svc.cache._idle.get(key, []) if r.width == width]


def assert_batch_bitwise(results, problems, artifact, warm_starts=None):
    fresh = solve_batch_job(problems, artifact, SETTINGS,
                            warm_starts=warm_starts, verify=False)
    for result, raw in zip(results, fresh.results):
        assert_bitwise(result, raw)


@pytest.fixture
def batch_runs(monkeypatch):
    """Record every batched resident that ran, in order."""
    log = []
    real = BatchResident.run

    def spy(self):
        log.append(self)
        return real(self)

    monkeypatch.setattr(BatchResident, "run", spy)
    return log


def test_batch_stream_binds_once_per_structure_and_width(batch_runs):
    bases = [generate_lasso(8, seed=0), generate_svm(10, seed=0)]
    with service(algorithm="admm") as svc:
        for base in bases:
            svc.solve_batch(batch_stream(base, range(32)))
        warm = counters(svc)[BINDS]
        assert warm == len(bases)
        for round_ in range(1, 4):
            for base in bases:
                problems = batch_stream(base, range(32 * round_,
                                                    32 * round_ + 32))
                results = svc.solve_batch(problems)
                assert {r.record.batch_width for r in results} == {32}
                assert_batch_bitwise(
                    results, problems, svc.cache.peek(key_of(svc, base)))
        snap = counters(svc)
        assert snap[BINDS] == warm                       # zero per burst
        assert not any(name.startswith("serving_resident_discards")
                       for name in snap)
        # One machine per structure served every burst of its width.
        assert len(set(map(id, batch_runs))) == len(bases)
        for base in bases:
            assert len(batch_idle(svc, key_of(svc, base), 32)) == 1


def test_batch_group_with_a_deadline_frozen_lane_is_not_pooled(batch_runs):
    base = generate_lasso(8, seed=0)
    with service(algorithm="admm") as svc:
        key = key_of(svc, base)
        svc.solve_batch(batch_stream(base, range(4)))
        (pooled,) = batch_idle(svc, key, 4)
        binds = counters(svc)[BINDS]
        results = svc.solve_batch(batch_stream(base, range(4, 8)),
                                  deadlines=[None, 1e-9, None, None])
        assert batch_runs[-1] is pooled                  # it ran...
        assert pooled.spoiled == "deadline"
        assert not batch_idle(svc, key, 4)               # ...and left
        assert counters(svc)[discards("deadline")] == 1
        assert results[1].record.deadline_missed         # solo fallback
        assert results[1].record.batch_width == 1
        assert all(r.record.batch_width == 4 for i, r in enumerate(results)
                   if i != 1)
        svc.solve_batch(batch_stream(base, range(8, 12)))
        assert counters(svc)[BINDS] == binds + 1


def test_armed_batch_group_never_leases(batch_runs):
    base = generate_lasso(8, seed=0)
    plan = FaultPlan(faults=(Fault(kind="mac-flip", request=5),))
    with service(algorithm="admm", fault_plan=plan) as svc:
        key = key_of(svc, base)
        svc.solve_batch(batch_stream(base, range(4)))    # requests 0-3
        (pooled,) = batch_idle(svc, key, 4)
        svc.solve_batch(batch_stream(base, range(4, 8)))  # 4-7, 5 armed
        armed = batch_runs[-1]
        assert armed is not pooled
        assert armed.accelerator.machine.injectors is not None
        assert armed.spoiled == "fault"
        assert batch_idle(svc, key, 4) == [pooled]       # untouched
        assert counters(svc)[BINDS] == 2
        assert counters(svc)[discards("fault")] == 1


def test_narrower_batch_group_does_not_lease_a_wider_machine():
    base = generate_lasso(8, seed=0)
    with service(algorithm="admm") as svc:
        key = key_of(svc, base)
        svc.solve_batch(batch_stream(base, range(32)))
        (wide,) = batch_idle(svc, key, 32)
        problems = batch_stream(base, range(32, 49))
        results = svc.solve_batch(problems)
        assert {r.record.batch_width for r in results} == {17}
        assert counters(svc)[BINDS] == 2
        assert batch_idle(svc, key, 32) == [wide]
        # The 17 lanes run at the next compiled width, 24, not 32.
        assert len(batch_idle(svc, key, 24)) == 1
        assert_batch_bitwise(results, problems, svc.cache.peek(key))


def test_batch_threads_on_one_key_never_share_a_machine(monkeypatch):
    held, lock, overlaps = set(), threading.Lock(), []
    real = BatchResident.run

    def exclusive(self):
        with lock:
            if id(self) in held:
                overlaps.append(id(self))
            held.add(id(self))
        try:
            time.sleep(0.002)       # widen the window for a collision
            return real(self)
        finally:
            with lock:
                held.discard(id(self))

    monkeypatch.setattr(BatchResident, "run", exclusive)
    base = generate_svm(10, seed=0)
    bursts = [batch_stream(base, range(8 * k, 8 * k + 8)) for k in range(9)]
    answers = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # more thread switches, more races
    try:
        with service(algorithm="admm", workers=3, mode="thread") as svc:
            svc.solve(base)

            def client(ks):
                for k in ks:
                    answers[k] = svc.solve_batch(bursts[k])

            # More client threads than cores, one pool slot each.
            threads = [threading.Thread(target=client,
                                        args=(range(i, 9, 3),))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
            artifact = svc.cache.peek(key_of(svc, base))
            assert len(batch_idle(svc, key_of(svc, base), 8)) <= 3
    finally:
        sys.setswitchinterval(interval)
    assert not overlaps
    for k, burst in enumerate(bursts):
        assert_batch_bitwise(answers[k], burst, artifact)


def test_invalidate_and_eviction_drop_batch_residents():
    first, second = generate_lasso(8, seed=0), generate_svm(10, seed=0)
    with service(algorithm="admm", cache_capacity=1) as svc:
        svc.solve_batch(batch_stream(first, range(4)))
        key = key_of(svc, first)
        assert len(batch_idle(svc, key, 4)) == 1
        svc.cache.invalidate(key)
        assert key not in svc.cache._idle
        assert counters(svc)[discards("invalidated")] == 1
        svc.solve_batch(batch_stream(first, range(4, 8)))
        assert len(batch_idle(svc, key, 4)) == 1
        svc.solve_batch(batch_stream(second, range(4)))
        assert key not in svc.cache._idle
        assert counters(svc)[discards("evicted")] == 1


def test_batch_session_is_a_pinned_batch_lease():
    base = generate_lasso(8, seed=0)
    lanes = batch_stream(base, range(4))
    with service(algorithm="admm") as svc:
        key = key_of(svc, base)
        svc.solve_batch(batch_stream(base, range(4, 8)))
        (pooled,) = batch_idle(svc, key, 4)
        artifact = svc.cache.peek(key)
        session = svc.open_batch_session(lanes)
        assert session._resident is pooled               # leased, not bound
        assert not batch_idle(svc, key, 4)
        previous = None
        for step in range(3):
            bumped = perturb_numeric(base, seed=10 + step)
            session.update(1, q=bumped.q, l=bumped.l, u=bumped.u)
            warm = ([(r.x, r.y) for r in previous]
                    if previous is not None else None)
            previous = session.resolve_all()
            fresh = solve_batch_job(session.problems, artifact, SETTINGS,
                                    warm_starts=warm, verify=False)
            for lane, raw in zip(previous, fresh.results):
                assert lane.x.tobytes() == raw.x.tobytes()
                assert lane.total_cycles == raw.total_cycles
        session.close()
        assert batch_idle(svc, key, 4) == [pooled]       # handed back
        with pytest.raises(RuntimeError):
            session.resolve_all()
        assert counters(svc)[BINDS] == 1                 # flat after warm-up
