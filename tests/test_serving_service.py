"""SolverService end-to-end: correctness vs the reference solver,
cache tiers, worker pool modes, fallback policy and metrics."""

import numpy as np
import pytest

from repro.hw.accelerator import RSQPResult
from repro.hw.machine import ExecutionStats
from repro.problems import (generate_control, generate_lasso, generate_svm,
                            perturb_numeric)
from repro.serving import SolverService, WorkerPool
from repro.serving.service import (TIER_BUILD, TIER_DISK, TIER_FALLBACK,
                                   TIER_HIT)
from repro.solver import OSQPSettings, solve

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)


def service(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "serial")
    return SolverService(**kwargs)


class TestCorrectness:
    @pytest.mark.parametrize("make_problem", [
        lambda: generate_svm(10, seed=0),
        lambda: generate_control(4, horizon=5, seed=1),
        lambda: generate_lasso(8, seed=2),
    ])
    def test_matches_reference_solver(self, make_problem):
        prob = make_problem()
        with service() as svc:
            res = svc.solve(prob)
        assert res.converged
        ref = solve(prob, SETTINGS)
        assert ref.status.is_optimal
        assert np.isclose(prob.objective(res.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)
        assert prob.primal_residual(res.x) < 1e-2

    def test_warm_solve_matches_cold_solve(self):
        base = generate_lasso(8, seed=3)
        variant = perturb_numeric(base, seed=9)
        with service() as svc:
            cold = svc.solve(base)
            warm = svc.solve(variant)       # same structure: cache hit
        assert cold.record.tier == TIER_BUILD
        assert warm.record.tier == TIER_HIT
        assert warm.converged
        ref = solve(variant, SETTINGS)
        assert np.isclose(variant.objective(warm.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)

    def test_result_exposes_typed_stats(self):
        with service() as svc:
            res = svc.solve(generate_svm(10, seed=1))
        assert isinstance(res.raw, RSQPResult)
        assert isinstance(res.raw.stats, ExecutionStats)
        assert res.raw.stats.by_class["SpMV"] > 0

    def test_warm_start_accepted(self):
        prob = generate_svm(10, seed=2)
        with service() as svc:
            first = svc.solve(prob)
            again = svc.solve(prob, warm_start=(first.x, first.y))
        assert again.converged
        assert again.record.admm_iterations <= first.record.admm_iterations


class TestCacheTiers:
    def test_repeated_structure_hits(self):
        base = generate_lasso(8, seed=0)
        problems = [base] + [perturb_numeric(base, seed=s)
                             for s in range(4)]
        with service() as svc:
            results = svc.solve_batch(problems)
            stats = svc.cache_stats()
        tiers = [r.record.tier for r in results]
        assert tiers == [TIER_BUILD] + [TIER_HIT] * 4
        assert stats.hits == 4 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.8)

    def test_distinct_structures_build_separately(self):
        with service() as svc:
            a = svc.solve(generate_lasso(8, seed=0))
            b = svc.solve(generate_svm(10, seed=0))
        assert a.record.tier == b.record.tier == TIER_BUILD
        assert a.record.fingerprint_key != b.record.fingerprint_key

    def test_disk_tier_skips_search(self, tmp_path):
        path = tmp_path / "arch.json"
        prob = generate_lasso(8, seed=1)
        with service(cache_path=path) as svc:
            first = svc.solve(prob)
        assert first.record.tier == TIER_BUILD
        assert path.exists()

        with service(cache_path=path) as svc:
            again = svc.solve(prob)
            stats = svc.cache_stats()
        assert again.record.tier == TIER_DISK
        assert stats.disk_hits == 1
        assert again.record.architecture == first.record.architecture
        # Rebuilding from the persisted decision skips the LZW search,
        # so the customize stage is much cheaper than the full build.
        assert again.record.customize_seconds < first.record.customize_seconds

    def test_eviction_keeps_spec(self):
        a = generate_lasso(8, seed=0)
        b = generate_svm(10, seed=0)
        with service(cache_capacity=1) as svc:
            svc.solve(a)
            svc.solve(b)       # evicts a's artifact, keeps its spec
            res = svc.solve(a)
            stats = svc.cache_stats()
        assert res.record.tier == TIER_DISK
        assert stats.evictions >= 1

    def test_records_ordered_by_request(self):
        base = generate_lasso(8, seed=0)
        with service() as svc:
            svc.solve_batch([base, perturb_numeric(base, seed=1)])
            records = svc.records()
        assert [r.request_id for r in records] == [0, 1]
        assert all(r.total_seconds > 0 for r in records)


class TestPoolModes:
    def test_thread_mode_batch(self):
        base = generate_lasso(8, seed=0)
        problems = [base] + [perturb_numeric(base, seed=s)
                             for s in range(3)]
        with service(mode="thread", workers=2) as svc:
            results = svc.solve_batch(problems)
        assert all(r.converged for r in results)
        refs = [solve(p, SETTINGS) for p in problems]
        for res, ref, prob in zip(results, refs, problems):
            assert np.isclose(prob.objective(res.x), ref.info.obj_val,
                              rtol=1e-2, atol=1e-3)

    def test_thread_mode_concurrent_same_structure_builds_once(self):
        base = generate_lasso(8, seed=0)
        problems = [perturb_numeric(base, seed=s) for s in range(4)]
        with service(mode="thread", workers=4) as svc:
            results = svc.solve_batch(problems)
            stats = svc.cache_stats()
        assert all(r.converged for r in results)
        # Per-key build lock: racing workers share one build.
        assert len(svc.cache) == 1
        assert stats.hits + stats.misses == 4

    def test_pool_rejects_bad_mode(self):
        for mode in ("fiber", "process"):
            with pytest.raises(ValueError):
                WorkerPool(mode=mode)
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_serial_pool_propagates_exceptions(self):
        pool = WorkerPool(mode="serial")
        future = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()


class TestFallbackPolicy:
    def test_cold_request_answered_by_reference(self):
        prob = generate_lasso(8, seed=0)
        with service(cold_policy="fallback", mode="thread",
                     workers=2) as svc:
            first = svc.solve(prob)
            assert first.record.tier == TIER_FALLBACK
            assert first.backend == "reference"
            assert first.converged
            svc.drain()                     # background build completes
            second = svc.solve(prob)
        assert second.record.tier == TIER_HIT
        assert second.backend == "rsqp"
        assert np.isclose(prob.objective(first.x),
                          prob.objective(second.x), rtol=1e-2, atol=1e-3)

    def test_fallback_counted_in_metrics(self):
        prob = generate_svm(10, seed=0)
        with service(cold_policy="fallback", mode="thread",
                     workers=2) as svc:
            svc.solve(prob)
            svc.drain()
            snap = svc.metrics_snapshot()
        assert snap["counters"]["serving_fallback_solves_total"] == 1

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            SolverService(cold_policy="punt")


class TestLifecycleAndMetrics:
    def test_metrics_snapshot_schema(self):
        base = generate_lasso(8, seed=0)
        with service() as svc:
            svc.solve_batch([base, perturb_numeric(base, seed=1)])
            snap = svc.metrics_snapshot()
        counters = snap["counters"]
        assert counters["serving_requests_total"] == 2
        assert counters["serving_cache_hits_total"] == 1
        assert counters["serving_cache_misses_total"] == 1
        for name in ("serving_setup_seconds", "serving_solve_seconds",
                     "serving_admm_iterations"):
            assert snap["histograms"][name]["count"] == 2
        assert snap["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_amortization_report_mentions_tiers(self):
        base = generate_lasso(8, seed=0)
        with service() as svc:
            svc.solve_batch([base, perturb_numeric(base, seed=1)])
            report = svc.amortization_report()
        assert "cache hit rate" in report
        assert "cold setup" in report and "warm setup" in report
        assert "amortization" in report

    def test_unknown_request_id(self):
        with service() as svc:
            with pytest.raises(KeyError):
                svc.result(999)

    def test_closed_service_rejects_submit(self):
        svc = service()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(generate_lasso(8, seed=0))

    def test_close_is_idempotent(self):
        svc = service()
        svc.solve(generate_lasso(8, seed=0))
        svc.close()
        svc.close()
