"""Coalescer edge cases and serving-layer batch semantics.

Unit tests drive the :class:`repro.batch.Coalescer` with an injected
fake clock (linger expiry, deadline headroom, mixed-key isolation);
the service tests check that coalesced ``solve_batch`` calls preserve
solo semantics — bitwise-identical results, per-lane deadlines, and
correct per-group batch widths.
"""

import numpy as np
import pytest

from repro.batch import Coalescer
from repro.problems import (generate_control, generate_lasso,
                            perturb_numeric)
from repro.serving import SolverService
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def service(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "serial")
    return SolverService(**kwargs)


class TestCoalescerFlush:
    def test_full_group_flushes_immediately(self):
        clk = FakeClock()
        co = Coalescer(max_batch=3, max_linger=1.0, clock=clk)
        assert co.offer("k", "a") is None
        assert co.offer("k", "b") is None
        assert co.offer("k", "c") == ["a", "b", "c"]   # FIFO order
        assert co.pending == 0

    def test_linger_expiry_flushes_partial_batch(self):
        clk = FakeClock()
        co = Coalescer(max_batch=8, max_linger=0.010, clock=clk)
        co.offer("k", 0)
        clk.advance(0.004)
        co.offer("k", 1)
        # Linger is measured from the oldest entry; not due yet.
        assert co.due() == []
        assert co.pending == 2
        clk.advance(0.007)                 # oldest has now waited 11 ms
        assert co.due() == [("k", [0, 1])]
        assert co.pending == 0
        assert co.due() == []              # flushing pops the group

    def test_mixed_keys_never_cobatch(self):
        clk = FakeClock()
        co = Coalescer(max_batch=2, max_linger=1.0, clock=clk)
        # Alternating keys: four offers, two independent groups.
        assert co.offer("a", "a0") is None
        assert co.offer("b", "b0") is None
        assert co.offer("a", "a1") == ["a0", "a1"]
        assert co.offer("b", "b1") == ["b0", "b1"]
        # Partial groups flush per key too, never merged.
        co.offer("a", "a2")
        co.offer("b", "b2")
        flushed = dict(co.flush_all())
        assert flushed == {"a": ["a2"], "b": ["b2"]}

    def test_deadline_headroom_flushes_early(self):
        clk = FakeClock(100.0)
        co = Coalescer(max_batch=8, max_linger=0.050,
                       deadline_headroom=0.010, clock=clk)
        co.offer("k", "slack", deadline_at=200.0)
        assert co.due() == []
        # A lane whose deadline is within the headroom forces the
        # whole group out long before the linger expires.
        co.offer("k", "tight", deadline_at=clk() + 0.008)
        assert co.due() == [("k", ["slack", "tight"])]

    def test_next_due_at_tracks_soonest_trigger(self):
        clk = FakeClock(10.0)
        co = Coalescer(max_batch=8, max_linger=0.020,
                       deadline_headroom=0.005, clock=clk)
        assert co.next_due_at() is None
        co.offer("k", 0)
        assert co.next_due_at() == pytest.approx(10.020)
        # A near deadline pulls the flush time earlier than the linger.
        co.offer("k", 1, deadline_at=10.012)
        assert co.next_due_at() == pytest.approx(10.007)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(max_linger=-1.0)


class TestServingBatchSemantics:
    def test_batched_results_bitwise_match_per_request(self):
        base = generate_lasso(8, seed=11)
        problems = [base] + [perturb_numeric(base, seed=s)
                             for s in (1, 2, 3)]
        with service() as svc:
            batched = svc.solve_batch(problems)
        with service() as svc:
            solo = svc.solve_batch(problems, coalesce=False)
        for b, s in zip(batched, solo):
            assert b.x.tobytes() == s.x.tobytes()
            assert b.y.tobytes() == s.y.tobytes()
            assert b.record.admm_iterations == s.record.admm_iterations
            assert b.record.simulated_cycles == s.record.simulated_cycles
        widths = [r.record.batch_width for r in batched]
        assert widths == [4, 4, 4, 4]
        assert all(r.record.batch_width == 1 for r in solo)

    def test_group_runs_at_next_compiled_width(self):
        """A 5-lane group runs on a 6-wide machine whose spare lane
        copies lane 0; a 6-lane group then reuses that resident, and
        every answer is the solo one."""
        from repro.serving.pool import batch_width
        assert [batch_width(b) for b in range(1, 18)] == [
            1, 2, 3, 4, 6, 6, 8, 8, 12, 12, 12, 12, 16, 16, 16, 16, 24]
        base = generate_lasso(8, seed=5)
        problems = [perturb_numeric(base, seed=s) for s in range(11)]
        with service(max_batch=6) as svc:
            svc.solve(base)
            batched = (svc.solve_batch(problems[:5])
                       + svc.solve_batch(problems[5:]))
            snap = svc.metrics.snapshot()
        with service() as svc:
            solo = svc.solve_batch(problems, coalesce=False)
        for b, s in zip(batched, solo):
            assert b.x.tobytes() == s.x.tobytes()
            assert b.y.tobytes() == s.y.tobytes()
            assert b.record.simulated_cycles == s.record.simulated_cycles
        assert [r.record.batch_width for r in batched] == [5] * 5 + [6] * 6
        c = snap["counters"]
        assert c["serving_batches_total"] == 2
        assert c["serving_batch_spare_lanes_total"] == 1
        # One solo bind for the warm-up, one 6-wide bind for both groups.
        assert c["serving_accelerator_binds_total"] == 2
        utilization = snap["histograms"]["serving_batch_lane_utilization"]
        assert 0.0 < utilization["min"] <= utilization["max"] <= 1.0

    def test_batch_metrics_and_flush_reasons(self):
        base = generate_lasso(8, seed=4)
        problems = [perturb_numeric(base, seed=s) for s in range(5)]
        with service(max_batch=4) as svc:
            svc.solve_batch(problems)
            snap = svc.metrics.snapshot()
        c = snap["counters"]
        assert c["serving_batches_total"] == 1
        assert c["serving_batched_requests_total"] == 4
        assert c['serving_batch_flushes_total{reason="full"}'] == 1
        assert c['serving_batch_flushes_total{reason="drain"}'] == 1
        assert snap["histograms"]["serving_batch_width"]["max"] == 4
        # The fifth request solves solo (group of one).
        assert c["serving_requests_total"] == 5

    def test_mixed_structures_group_by_fingerprint(self):
        lasso = generate_lasso(8, seed=0)
        control = generate_control(4, horizon=5, seed=0)
        problems = [lasso, control,
                    perturb_numeric(lasso, seed=1),
                    perturb_numeric(control, seed=1)]
        with service() as svc:
            results = svc.solve_batch(problems)
        keys = [r.record.fingerprint_key for r in results]
        assert keys[0] == keys[2] and keys[1] == keys[3]
        assert keys[0] != keys[1]
        # Each structure coalesces with its own kind only.
        assert [r.record.batch_width for r in results] == [2, 2, 2, 2]
        assert all(r.converged for r in results)

    def test_lane_deadline_degrades_only_that_lane(self):
        base = generate_lasso(8, seed=7)
        problems = [perturb_numeric(base, seed=s) for s in range(4)]
        with service() as svc:
            results = svc.solve_batch(problems,
                                      deadlines=[None, 0.0, None, None])
            snap = svc.metrics.snapshot()
        missed = results[1].record
        assert missed.deadline_missed
        assert missed.degraded
        assert missed.backend == "reference"
        assert np.isfinite(results[1].x).all()
        for r in (results[0], results[2], results[3]):
            assert r.record.backend == "rsqp"
            assert not r.record.deadline_missed
            assert not r.record.degraded
            assert r.record.batch_width == 4
        c = snap["counters"]
        assert c['serving_batch_lane_fallbacks_total{reason="deadline"}'] == 1
        assert c["serving_deadline_misses_total"] == 1

    def test_algorithm_counters_count_every_request_once(self):
        from repro.problems import generate
        base = generate("eqqp", 16, seed=0)
        problems = [perturb_numeric(base, seed=s) for s in range(1, 5)]
        with service() as svc:
            svc.solve(base)
            # Three lanes are served batched; the zero-deadline lane
            # falls back to the solo path alone.
            svc.solve_batch(problems, deadlines=[None, 0.0, None, None])
            counters = svc.metrics.snapshot()["counters"]
        requests = counters["serving_requests_total"]
        assert requests == 5
        assert counters["serving_batched_requests_total"] == 3
        assert counters["serving_algo_selected_total"] == requests
        assert sum(value for name, value in counters.items()
                   if name.startswith("serving_algo_selected_")
                   and name != "serving_algo_selected_total") == requests


class TestBatchLaneChecks:
    """The lane check reuses the router's fingerprints, and every group
    reports how much of its lockstep stream served live lanes."""

    @staticmethod
    def _count_fingerprints(monkeypatch):
        import repro.serving.fingerprint as fingerprint_module
        import repro.serving.service as service_module
        calls = []
        original = fingerprint_module.fingerprint_problem

        def counting(problem, **kwargs):
            calls.append(problem)
            return original(problem, **kwargs)

        monkeypatch.setattr(fingerprint_module, "fingerprint_problem",
                            counting)
        monkeypatch.setattr(service_module, "fingerprint_problem", counting)
        return calls

    def test_each_lane_fingerprinted_once(self, monkeypatch):
        from repro.problems import generate
        base = generate("eqqp", 16, seed=0)
        problems = [perturb_numeric(base, seed=s) for s in range(1, 33)]
        with service(max_batch=32) as svc:
            svc.solve(base)
            calls = self._count_fingerprints(monkeypatch)
            svc.solve_batch(problems)
            counters = svc.metrics.snapshot()["counters"]
        assert counters["serving_batched_requests_total"] == 32
        assert len(calls) == 32

    def test_mismatching_lane_still_rejected(self):
        from repro.exceptions import VerificationError
        from repro.serving import fingerprint_problem
        from repro.serving.arch_cache import build_artifact
        from repro.verify import ensure_batch_verified
        lasso = generate_lasso(8, seed=0)
        other = generate_control(4, horizon=5, seed=0)
        artifact = build_artifact(lasso, 8)
        problems = [lasso, perturb_numeric(lasso, seed=1), other]
        fingerprints = [fingerprint_problem(p, c=artifact.c)
                        for p in problems]
        for kwargs in ({}, {"fingerprints": fingerprints}):
            with pytest.raises(VerificationError) as excinfo:
                ensure_batch_verified(artifact, problems, **kwargs)
            errors = excinfo.value.report.errors
            assert [d.code for d in errors] == ["lane-mismatch"]
            assert "lane 2" in errors[0].location.path

    def test_lane_utilization_is_exported(self):
        from repro.batch import bind_batch
        from repro.problems import generate
        from repro.serving.arch_cache import build_artifact
        base = generate("control", 4, seed=0)
        problems = [base] + [perturb_numeric(base, seed=s)
                             for s in range(1, 8)]
        bres = bind_batch(problems, build_artifact(base, 8),
                          SETTINGS).run()
        ratio = sum(bres.lane_cycles) / (bres.batch * bres.wall_cycles)
        assert bres.batch == 8
        assert 0.0 < bres.lane_utilization <= 1.0
        assert bres.lane_utilization == ratio
        with service(max_batch=4) as svc:
            svc.solve_batch(problems)
            snap = svc.metrics.snapshot()
        groups = snap["counters"]["serving_batches_total"]
        observed = snap["histograms"]["serving_batch_lane_utilization"]
        assert groups == 2
        assert observed["count"] == groups
        assert 0.0 < observed["min"] <= observed["max"] <= 1.0


class TestFlushCallback:
    def collect(self):
        events = []
        return events, lambda reason, key, items: events.append(
            (reason, key, list(items)))

    def test_full_flush_emits(self):
        events, hook = self.collect()
        co = Coalescer(max_batch=2, max_linger=1.0, clock=FakeClock(),
                       on_flush=hook)
        co.offer("k", "a")
        co.offer("k", "b")
        assert events == [("full", "k", ["a", "b"])]

    def test_due_flush_emits(self):
        clk = FakeClock()
        events, hook = self.collect()
        co = Coalescer(max_batch=8, max_linger=0.010, clock=clk,
                       on_flush=hook)
        co.offer("k", "a")
        clk.advance(0.011)
        co.due()
        assert events == [("due", "k", ["a"])]

    def test_drain_emits_and_releases_every_lane(self):
        # The shutdown audit: every queued lane leaves exactly once,
        # keyed by its own group, when intake stops.
        events, hook = self.collect()
        co = Coalescer(max_batch=8, max_linger=10.0, clock=FakeClock(),
                       on_flush=hook)
        lanes = [("a", 0), ("b", 1), ("a", 2), ("c", 3), ("b", 4)]
        for key, lane in lanes:
            co.offer(key, lane)
        flushed = co.drain()
        assert co.pending == 0
        assert dict(flushed) == {"a": [0, 2], "b": [1, 4], "c": [3]}
        assert events == [("drain", "a", [0, 2]), ("drain", "b", [1, 4]),
                          ("drain", "c", [3])]
        released = [lane for _, _, items in events for lane in items]
        assert sorted(released) == [0, 1, 2, 3, 4]  # nothing lost
        assert co.drain() == []                     # idempotent

    def test_no_callback_is_fine(self):
        co = Coalescer(max_batch=2, clock=FakeClock())
        co.offer("k", "a")
        assert co.offer("k", "b") == ["a", "b"]
        assert co.drain() == []
