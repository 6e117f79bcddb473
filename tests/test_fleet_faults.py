"""Fleet under faults: node failures, requeue, circuit breakers,
degraded spill, and the admission-clock guard.

The invariant the suite defends: a node failure never loses a request
— the in-flight and queued work is requeued, and when the fleet cannot
place it the request resolves on the reference spill lane with an
explicit ``degraded``/``attempts`` trail, never a silent drop."""

import json

import pytest

from repro.exceptions import FaultDetectedError
from repro.faults import Fault, FaultPlan
from repro.fleet import (FleetService, LANE_NODE, LANE_SHED, LANE_SPILL,
                         TokenBucket)
from repro.fleet.events import AcceleratorNode
from repro.problems import generate_control, generate_lasso, perturb_numeric
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)


def fleet(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    return FleetService(**kwargs)


@pytest.fixture(scope="module")
def ctrl():
    problem = generate_control(4, horizon=5, seed=1)
    problem.name = "ctrl"
    return problem


@pytest.fixture(scope="module")
def lasso():
    problem = generate_lasso(8, seed=2)
    problem.name = "lasso"
    return problem


@pytest.fixture(scope="module")
def service_window(ctrl):
    """(start, service_seconds) of an undisturbed solve of ``ctrl``."""
    with fleet() as flt:
        flt.commission(ctrl)
        record = flt.solve(ctrl, at=0.0).record
    return record.start, record.service_seconds


def counters(flt):
    return flt.metrics.snapshot()["counters"]


class TestNodeFailure:
    def test_fail_during_service_requeues_in_flight_work(
            self, ctrl, service_window):
        start, seconds = service_window
        assert seconds > 0
        plan = FaultPlan(faults=(
            Fault(kind="node-stall", node=0, time=start + seconds / 2,
                  duration=10.0),))
        with fleet(fault_plan=plan) as flt:
            flt.commission(ctrl)
            result = flt.solve(ctrl, at=0.0)
        # The sole node died mid-service: the request is aborted,
        # requeued, finds no online node, and resolves on the spill
        # lane — answered, correct, and with the retry trail visible.
        assert result.converged
        assert result.record.lane == LANE_SPILL
        assert result.record.attempts == 1
        counts = counters(flt)
        assert counts["fleet_node_failures_total"] == 1
        assert counts["fleet_requeues_total"] == 1
        # The stale completion event from the aborted service must be
        # dropped by the epoch guard: exactly one record, no crash.
        assert len(flt.records()) == 1

    def test_recovered_node_serves_again(self, ctrl, service_window):
        start, seconds = service_window
        fail_at = start + seconds / 2
        plan = FaultPlan(faults=(
            Fault(kind="node-stall", node=0, time=fail_at,
                  duration=seconds),))
        with fleet(fault_plan=plan, breaker_reset_seconds=0.0) as flt:
            flt.commission(ctrl)
            first = flt.solve(ctrl, at=0.0)
            second = flt.solve(ctrl, at=fail_at + 10 * seconds + 1.0)
        assert first.converged and second.converged
        assert second.record.lane == LANE_NODE
        counts = counters(flt)
        assert counts["fleet_node_failures_total"] == 1
        assert counts["fleet_node_recoveries_total"] == 1

    def test_fail_while_idle_loses_nothing(self, ctrl):
        plan = FaultPlan(faults=(
            Fault(kind="node-stall", node=0, time=100.0, duration=0.5),))
        with fleet(fault_plan=plan) as flt:
            flt.commission(ctrl)
            result = flt.solve(ctrl, at=0.0)
            flt.drain()
        assert result.record.lane == LANE_NODE
        assert counters(flt)["fleet_node_failures_total"] == 1

    def test_stall_targeting_unknown_node_is_ignored(self, ctrl):
        plan = FaultPlan(faults=(
            Fault(kind="node-stall", node=99, time=0.0, duration=1.0),))
        with fleet(fault_plan=plan) as flt:
            flt.commission(ctrl)
            result = flt.solve(ctrl)
        assert result.record.lane == LANE_NODE
        assert counters(flt).get("fleet_node_failures_total", 0) == 0


class TestCircuitBreaker:
    def test_open_breaker_diverts_even_after_recovery(
            self, ctrl, service_window):
        start, seconds = service_window
        fail_at = start + seconds / 2
        plan = FaultPlan(faults=(
            Fault(kind="node-stall", node=0, time=fail_at,
                  duration=seconds),))
        # Reset window far beyond the test horizon: the breaker stays
        # open although the node itself is healthy again.
        with fleet(fault_plan=plan, breaker_reset_seconds=1e9) as flt:
            flt.commission(ctrl)
            flt.solve(ctrl, at=0.0)
            late = flt.solve(ctrl, at=fail_at + 10 * seconds + 1.0)
        assert late.converged
        assert late.record.lane == LANE_SPILL
        counts = counters(flt)
        assert counts["fleet_breaker_opens_total"] >= 1
        report = flt.fleet_report()
        assert report["nodes"][0]["breaker"] == "open"
        assert report["faults"]["breaker_opens"] >= 1

    def test_solve_failure_reroutes_to_sibling_node(self, ctrl,
                                                    monkeypatch):
        with fleet(breaker_threshold=1) as flt:
            flt.commission(ctrl)
            flt.commission(ctrl)
            real = flt._node_solve

            def defective_node0(request, node):
                if node.node_id == 0:
                    raise FaultDetectedError("node 0 datapath defect")
                return real(request, node)

            monkeypatch.setattr(flt, "_node_solve", defective_node0)
            result = flt.solve(ctrl)
        assert result.converged
        assert result.record.lane == LANE_NODE
        assert result.record.node_id == 1
        assert result.record.attempts == 1
        counts = counters(flt)
        assert counts["fleet_solve_failures_total"] == 1
        assert counts["fleet_breaker_opens_total"] == 1

    def test_exhausted_attempts_degrade_explicitly(self, ctrl,
                                                   monkeypatch):
        with fleet(max_attempts=2) as flt:
            flt.commission(ctrl)
            monkeypatch.setattr(
                flt, "_node_solve",
                lambda request, node: (_ for _ in ()).throw(
                    FaultDetectedError("always broken")))
            result = flt.solve(ctrl)
        assert result.converged                 # reference lane answered
        assert result.record.lane == LANE_SPILL
        assert result.record.degraded
        assert result.record.attempts == 2
        counts = counters(flt)
        assert counts["fleet_degraded_total"] == 1
        assert counts["fleet_solve_failures_total"] == 2

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            fleet(max_attempts=0)


class TestChaosReplay:
    def test_generated_plan_answers_every_request(self, ctrl, lasso):
        def run():
            plan = FaultPlan.generate(11, 16, stalls=2, nodes=2,
                                      horizon=16 / 2000.0, poisons=0)
            with fleet(seed=3, policy="match", fault_plan=plan) as flt:
                flt.commission(ctrl)
                flt.commission(lasso)
                stream = [perturb_numeric((ctrl, lasso)[i % 2], seed=i)
                          for i in range(16)]
                ids = flt.replay_open(stream, rate=2000.0, seed=3)
                results = [flt.result(i) for i in ids]
                return flt.fleet_report(), results

        report, results = run()
        assert len(results) == 16
        assert all(r.record.lane in (LANE_NODE, LANE_SPILL, LANE_SHED)
                   for r in results)
        # Nobody vanishes and nobody fails silently: every non-shed
        # request carries a converged answer.
        assert all(r.converged for r in results
                   if r.record.lane != LANE_SHED)
        assert "faults" in report

    def test_report_is_deterministic_under_faults(self, ctrl, lasso):
        def run():
            plan = FaultPlan.generate(11, 12, stalls=1, nodes=2,
                                      horizon=12 / 2000.0, poisons=0)
            with fleet(seed=3, fault_plan=plan) as flt:
                flt.commission(ctrl)
                flt.commission(lasso)
                stream = [perturb_numeric((ctrl, lasso)[i % 2], seed=i)
                          for i in range(12)]
                flt.replay_open(stream, rate=2000.0, seed=3)
                return flt.fleet_report()

        a, b = run(), run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestAdmissionClockGuard:
    def test_backwards_clock_does_not_mint_tokens(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(10.0)
        assert bucket.try_take(10.0)            # burst drained at t=10
        # Clock steps backwards: no refill may occur, and the watermark
        # must not rewind (which would refill the same interval twice).
        assert not bucket.try_take(5.0)
        assert not bucket.try_take(0.0)
        # Real time resumes from the watermark, not from the rewound
        # clock: one simulated second refills exactly one token.
        assert bucket.try_take(11.0)
        assert not bucket.try_take(11.0)

    def test_monotonic_behavior_unchanged(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(0.5)


class TestAbortAccounting:
    def test_abort_reverses_service_accounting(self):
        node = AcceleratorNode(0, "c4", commissioned_at=0.0,
                               available_at=0.0)

        class Req:
            request_id = 7

        node.start_service(0.0, Req, 2.0, 0.9)
        assert node.served == 1
        aborted = node.abort_service(1.0)       # dies halfway through
        assert aborted is Req
        assert node.served == 0
        assert node.busy_seconds == pytest.approx(1.0)
        assert node.eta_sum == pytest.approx(0.0)
        assert node.busy_with is None

    def test_abort_when_idle_returns_none(self):
        node = AcceleratorNode(0, "c4", commissioned_at=0.0,
                               available_at=0.0)
        assert node.abort_service(0.0) is None
