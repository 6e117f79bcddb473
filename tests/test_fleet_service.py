"""FleetService end-to-end: solve correctness vs the reference solver,
match-score placement, calibrated-mode determinism, spill/shed lanes,
autoscaling, the fleet report, the replay CLI and the shared
build_artifact entry point."""

import json

import numpy as np
import pytest

from repro.customization import customize_problem
from repro.fleet import (AdmissionController, Autoscaler, FleetService,
                         LANE_NODE, LANE_SHED, LANE_SPILL)
from repro.fleet.__main__ import build_workload, main
from repro.problems import (generate_control, generate_lasso,
                            generate_svm, perturb_numeric)
from repro.serving import SolverService, build_artifact
from repro.serving.fingerprint import fingerprint_problem
from repro.solver import OSQPSettings, solve

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


class TestCorrectness:
    def test_exact_solve_matches_reference(self, ctrl):
        with fleet() as flt:
            flt.commission(ctrl)
            res = flt.solve(ctrl)
        assert res.converged
        assert res.backend == "rsqp"
        assert res.record.lane == LANE_NODE
        ref = solve(ctrl, SETTINGS)
        assert np.isclose(ctrl.objective(res.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)

    def test_cross_architecture_solve_still_converges(self, ctrl, lasso):
        # A lasso instance on a control-customized node: worse match
        # score, correct solution.
        with fleet() as flt:
            flt.commission(ctrl)
            res = flt.solve(lasso)
        assert res.converged
        assert not res.record.matched
        assert 0.0 < res.record.eta <= 1.0
        ref = solve(lasso, SETTINGS)
        assert np.isclose(lasso.objective(res.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)

    def test_solve_batch_preserves_order(self, ctrl, lasso):
        with fleet() as flt:
            flt.commission(ctrl)
            results = flt.solve_batch([ctrl, lasso, ctrl])
        assert [r.record.problem_name for r in results] == \
            ["ctrl", "lasso", "ctrl"]
        assert all(r.converged for r in results)

    def test_solve_batch_rejects_mismatched_warm_starts(self, ctrl, lasso):
        with fleet() as flt:
            flt.commission(ctrl)
            with pytest.raises(ValueError, match="must match"):
                flt.solve_batch([ctrl, lasso, ctrl], warm_starts=[None])
            assert flt.records() == []


class TestPlacement:
    def test_match_routes_to_dedicated_node(self, ctrl, lasso):
        with fleet(policy="match") as flt:
            n_ctrl = flt.commission(ctrl)
            n_lasso = flt.commission(lasso)
            r_ctrl = flt.solve(perturb_numeric(ctrl, seed=5))
            r_lasso = flt.solve(perturb_numeric(lasso, seed=6))
        assert r_ctrl.record.node_id == n_ctrl.node_id
        assert r_lasso.record.node_id == n_lasso.node_id
        assert r_ctrl.record.matched and r_lasso.record.matched

    def test_round_robin_ignores_structure(self, ctrl):
        with fleet(policy="round-robin") as flt:
            flt.commission(ctrl)
            flt.commission(ctrl)
            ids = [flt.solve(ctrl).record.node_id for _ in range(4)]
        assert ids == [0, 1, 0, 1]

    def test_simulated_queueing(self, ctrl):
        # Two same-instant arrivals on one node: the second waits for
        # the full first service in simulated time.
        with fleet() as flt:
            flt.commission(ctrl)
            first = flt.submit(ctrl, at=0.0)
            second = flt.submit(ctrl, at=0.0)
            r1, r2 = flt.result(first), flt.result(second)
        assert r1.record.queue_seconds == 0.0
        assert r2.record.queue_seconds == pytest.approx(
            r1.record.service_seconds)
        assert r2.record.latency_seconds > r1.record.latency_seconds


class TestCalibratedMode:
    def test_repeats_reuse_service_time(self, ctrl):
        with fleet() as flt:
            flt.commission(ctrl)
            r1 = flt.solve(ctrl)
            r2 = flt.solve(perturb_numeric(ctrl, seed=7))
        assert not r1.record.calibrated      # first solve is numeric
        assert r2.record.calibrated          # repeat reuses its cycles
        assert r2.record.service_seconds == r1.record.service_seconds
        assert r2.x is None                  # ...but not its solution

    def test_replay_is_deterministic(self, ctrl, lasso):
        def run():
            with fleet(seed=3) as flt:
                flt.commission(ctrl)
                flt.commission(lasso)
                stream = [perturb_numeric((ctrl, lasso)[i % 2], seed=i)
                          for i in range(10)]
                flt.replay_open(stream, rate=2000.0, seed=3)
                return flt.fleet_report()

        a, b = run(), run()
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


class TestAdmission:
    def test_queue_depth_spills_to_reference(self, ctrl):
        adm = AdmissionController(max_queue_depth=1)
        with fleet(admission=adm) as flt:
            flt.commission(ctrl)
            ids = [flt.submit(ctrl, at=0.0) for _ in range(4)]
            results = [flt.result(i) for i in ids]
        lanes = [r.record.lane for r in results]
        assert LANE_SPILL in lanes
        spilled = [r for r in results if r.record.lane == LANE_SPILL]
        assert all(r.backend == "reference" and r.converged
                   for r in spilled)
        assert flt.fleet_report()["spilled"] == len(spilled)

    def test_rate_limit_sheds(self, ctrl):
        adm = AdmissionController(rate=1.0, burst=1.0)
        with fleet(admission=adm) as flt:
            flt.commission(ctrl)
            ids = [flt.submit(ctrl, at=0.0) for i in range(3)]
            results = [flt.result(i) for i in ids]
        shed = [r for r in results if r.record.lane == LANE_SHED]
        assert len(shed) == 2
        assert all(r.x is None and not r.converged for r in shed)
        assert all(r.record.shed_reason == "rate-limit" for r in shed)

    def test_build_delay_spills_until_online(self, ctrl):
        with fleet() as flt:
            flt.commission(ctrl, build_seconds=1.0)
            early = flt.solve(ctrl, at=0.0)     # node still building
            late = flt.solve(ctrl, at=2.0)      # node online
        assert early.record.lane == LANE_SPILL
        assert late.record.lane == LANE_NODE


class TestAutoscaling:
    def test_commissions_dedicated_node_for_mismatch_traffic(
            self, ctrl, lasso):
        scaler = Autoscaler(build_cost_cycles=1.0, build_seconds=0.0)
        with fleet(policy="match", autoscaler=scaler) as flt:
            flt.commission(ctrl)
            first = flt.solve(lasso)            # mismatched -> waste
            second = flt.solve(perturb_numeric(lasso, seed=8))
        assert not first.record.matched
        assert second.record.matched            # new node took over
        assert len(flt.builds) == 2             # initial + autoscaled
        assert flt.builds[-1]["architecture"] == str(
            flt.dedicated_architecture(lasso))

    def test_max_nodes_drains_coldest(self, ctrl, lasso):
        scaler = Autoscaler(build_cost_cycles=1.0, build_seconds=0.0,
                            max_nodes=1)
        with fleet(policy="match", autoscaler=scaler) as flt:
            flt.commission(ctrl)
            flt.solve(lasso)
            flt.solve(perturb_numeric(lasso, seed=9))
        assert len(flt.nodes) == 1              # ceiling respected
        assert len(flt.retired) == 1
        assert flt.retired[0].node_id == 0
        assert flt.fleet_report()["decommissions"]


class TestReport:
    def test_report_counts_and_percentiles(self, ctrl, lasso):
        with fleet() as flt:
            flt.commission(ctrl)
            flt.solve_batch([ctrl, lasso, ctrl, lasso])
            rep = flt.fleet_report()
        assert rep["requests"] == 4
        assert rep["completed"] == 4
        assert rep["shed"] == 0 and rep["spilled"] == 0
        assert rep["converged"] == 4
        lat = rep["latency_seconds"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert rep["eta_weighted_throughput"] > 0
        assert 0 < rep["eta"]["mean"] <= 1.0
        assert len(rep["nodes"]) == 1
        assert rep["nodes"][0]["served"] == 4
        assert 0 < rep["nodes"][0]["utilization"] <= 1.0
        assert json.dumps(rep)                  # JSON-serializable
        assert "node 0" in flt.render_report()

    def test_metrics_flow_through_registry(self, ctrl):
        with fleet() as flt:
            flt.commission(ctrl)
            flt.solve(ctrl)
            snap = flt.metrics_snapshot()
        assert snap["counters"]["fleet_requests_total"] == 1
        assert snap["counters"]["fleet_completed_total"] == 1
        assert snap["counters"]["fleet_node0_served_total"] == 1
        assert snap["histograms"]["fleet_latency_seconds"]["count"] == 1
        prom = flt.metrics.render_prometheus()
        assert "# TYPE fleet_requests_total counter" in prom

    def test_lifecycle_guards(self, ctrl):
        flt = fleet()
        flt.commission(ctrl)
        flt.close()
        with pytest.raises(RuntimeError):
            flt.submit(ctrl)
        with pytest.raises(KeyError):
            flt.result(999)


class TestCLI:
    def test_replay_smoke(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["--requests", "6", "--structures", "2",
                     "--nodes", "2", "--families", "control,lasso",
                     "--scale", "0.5", "--report-json",
                     str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "eta-weighted throughput" in out
        report = json.loads(report_path.read_text())
        assert report["policy"] == "match"
        assert report["requests"] == 6

    def test_workload_is_skewed_and_deterministic(self):
        templates, problems = build_workload(
            ["control", "lasso"], 4, 40, 1.0, 1.5, seed=0)
        assert len(templates) == 4 and len(problems) == 40
        counts = {}
        for p in problems:
            base = p.name.split("#")[0]
            counts[base] = counts.get(base, 0) + 1
        # Zipf head: the most popular template dominates.
        assert counts.get(templates[0].name, 0) > len(problems) / 3
        _, again = build_workload(
            ["control", "lasso"], 4, 40, 1.0, 1.5, seed=0)
        assert [p.name for p in problems] == [p.name for p in again]


class TestBuildArtifact:
    def test_standalone_matches_service_build(self):
        problem = generate_svm(10, seed=0)
        artifact = build_artifact(problem, 16)
        assert artifact.fingerprint == fingerprint_problem(problem, c=16)
        assert artifact.c == 16
        assert artifact.customization.problem is None   # detached
        with SolverService(settings=SETTINGS, mode="serial") as svc:
            res = svc.solve(problem)
        assert res.record.architecture == artifact.architecture_string

    def test_foreign_architecture_mode(self, ctrl, lasso):
        arch = customize_problem(ctrl, 16).architecture
        artifact = build_artifact(lasso, 16, architecture=arch)
        assert str(artifact.customization.architecture) == str(arch)
        assert artifact.fmax_mhz > 0
        assert 0 < artifact.customization.eta <= 1.0
