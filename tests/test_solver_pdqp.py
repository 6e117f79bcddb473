"""The PDQP algorithm: reference solver, accelerator, selection, serving.

Covers the second algorithm end to end: the restarted accelerated
PDHG reference (`repro.solver.pdqp`), the common algorithm registry
(`repro.solver.algorithms`), the structural auto-selection policy
(`repro.solver.select`), the ISA lowering + accelerator wrapper
(`repro.hw.pdqp`), and the serving/fleet integration that picks an
algorithm per structure.
"""

import numpy as np
import pytest

from repro.faults import EVERY_ATTEMPT, Fault, FaultInjector, solution_ok
from repro.customization import customize_problem
from repro.hw import PDHG_LOOP, compile_pdqp_program
from repro.hw.accelerator import RSQPAccelerator
from repro.hw.pdqp import PDQPAccelerator
from repro.problems import FAMILIES, generate
from repro.qp import QProblem
from repro.solver import (OSQPSettings, PDQPSettings, PDQPSolver,
                          SolverStatus, available_algorithms,
                          choose_algorithm, get_algorithm, solve,
                          solve_pdqp, solve_with, structure_features)
from repro.sparse import CSRMatrix

from helpers import random_dense, random_spd_dense


def small_qp(seed=0, n=6, m=8):
    rng = np.random.default_rng(seed)
    p = random_spd_dense(rng, n, 0.5)
    a = random_dense(rng, m, n, 0.7)
    x0 = rng.standard_normal(n)
    slack = np.abs(rng.standard_normal(m)) + 0.1
    return QProblem(P=CSRMatrix.from_dense(p), q=rng.standard_normal(n),
                    A=CSRMatrix.from_dense(a), l=a @ x0 - slack,
                    u=a @ x0 + slack)


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------
class TestSettings:
    def test_defaults_valid(self):
        s = PDQPSettings()
        assert s.max_iter == 20000
        assert s.restart == "adaptive"

    @pytest.mark.parametrize("kwargs", [
        {"omega": 0.0}, {"omega": -1.0}, {"tau_scale": 0.0},
        {"tau_scale": 1.5}, {"restart": "sometimes"},
        {"restart_interval": 0}, {"restart_beta": 0.0},
        {"restart_beta": 1.0}, {"omega_tolerance": 0.5},
        {"power_iterations": 0}, {"eps_abs": -1.0}, {"max_iter": 0},
        {"check_termination": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PDQPSettings(**kwargs)

    def test_osqp_settings_share_base_validation(self):
        with pytest.raises(ValueError):
            OSQPSettings(eps_rel=-1.0)
        with pytest.raises(ValueError):
            OSQPSettings(alpha=2.5)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_both_algorithms_registered(self):
        assert available_algorithms() == ("admm", "pdqp")

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="admm"):
            get_algorithm("simplex")

    def test_solve_with_dispatches(self):
        prob = small_qp()
        r_admm = solve_with("admm", prob)
        r_pdqp = solve_with("pdqp", prob)
        assert r_admm.status.is_optimal
        assert r_pdqp.status.is_optimal
        np.testing.assert_allclose(r_admm.x, r_pdqp.x, atol=5e-2)

    def test_coerce_settings_carries_shared_fields(self):
        src = OSQPSettings(eps_abs=1e-5, eps_rel=1e-6, max_iter=123)
        out = get_algorithm("pdqp").coerce_settings(src)
        assert isinstance(out, PDQPSettings)
        assert out.eps_abs == 1e-5 and out.eps_rel == 1e-6
        assert out.max_iter == 123  # explicit budgets are honored

    def test_coerce_settings_drops_default_max_iter(self):
        out = get_algorithm("pdqp").coerce_settings(OSQPSettings())
        # The ADMM default budget would starve first-order PDHG;
        # defaults map to defaults.
        assert out.max_iter == PDQPSettings().max_iter


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------
class TestReference:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_solves_every_family(self, family):
        prob = generate(family, 16, seed=0)
        res = solve_pdqp(prob)
        assert res.status.is_optimal, (family, res.status)
        assert solution_ok(prob, res.x, res.y, res.z,
                           eps_abs=1e-3, eps_rel=1e-3)

    def test_matches_admm_reference(self):
        prob = small_qp(seed=4)
        tight = PDQPSettings(eps_abs=1e-8, eps_rel=1e-8, max_iter=50000)
        ours = solve_pdqp(prob, tight)
        ref = solve(prob, OSQPSettings(eps_abs=1e-8, eps_rel=1e-8,
                                       max_iter=30000, polish=True))
        assert ours.status.is_optimal and ref.status.is_optimal
        np.testing.assert_allclose(ours.x, ref.x, atol=1e-5)

    def test_restarts_and_history_recorded(self):
        prob = small_qp(seed=1)
        res = solve_pdqp(prob, PDQPSettings(
            restart="fixed", restart_interval=50, record_history=True,
            eps_abs=1e-6, eps_rel=1e-6, max_iter=5000))
        assert res.info.restarts > 0
        assert res.info.history
        assert res.iterations == res.info.iterations
        assert res.termination_reason == res.status.reason

    def test_restart_none_never_restarts(self):
        prob = small_qp(seed=1)
        res = solve_pdqp(prob, PDQPSettings(restart="none", max_iter=2000))
        assert res.info.restarts == 0

    def test_warm_start_helps(self):
        prob = small_qp(seed=2)
        cold = solve_pdqp(prob)
        solver = PDQPSolver(prob, PDQPSettings())
        solver.warm_start(x=cold.x, y=cold.y)
        warm = solver.solve()
        assert warm.info.iterations <= cold.info.iterations

    def test_max_iter_reported(self):
        prob = small_qp(seed=0)
        res = solve_pdqp(prob, PDQPSettings(max_iter=3, eps_abs=1e-12,
                                            eps_rel=1e-12,
                                            check_termination=1))
        assert res.status in (SolverStatus.MAX_ITER_REACHED,
                              SolverStatus.SOLVED_INACCURATE)
        assert res.termination_reason in ("max_iterations",
                                          "converged_inaccurate")


# ---------------------------------------------------------------------------
# auto-selection
# ---------------------------------------------------------------------------
class TestSelection:
    def test_small_problem_stays_on_admm(self):
        assert choose_algorithm(generate("lasso", 10)) == "admm"

    def test_large_sparse_structure_picks_pdqp(self):
        prob = generate("huber", 60)  # n + m ~ 780, sparse P
        assert choose_algorithm(prob) == "pdqp"

    def test_ill_scaled_diagonal_stays_on_admm(self):
        n = 200
        d = np.logspace(0, 8, n)
        prob = QProblem(P=CSRMatrix.from_dense(np.diag(d)),
                        q=np.ones(n),
                        A=CSRMatrix.from_dense(np.eye(n)),
                        l=-np.ones(n), u=np.ones(n))
        feats = structure_features(prob)
        assert feats.cond_proxy >= 1e6
        assert choose_algorithm(prob) == "admm"

    def test_dense_quadratic_stays_on_admm(self):
        rng = np.random.default_rng(0)
        n, m = 170, 170
        prob = QProblem(P=CSRMatrix.from_dense(random_spd_dense(rng, n, 1.0)),
                        q=rng.standard_normal(n),
                        A=CSRMatrix.from_dense(np.eye(m)),
                        l=-np.ones(m), u=np.ones(m))
        assert structure_features(prob).p_density >= 0.25
        assert choose_algorithm(prob) == "admm"

    def test_override_short_circuits(self):
        prob = generate("lasso", 10)
        assert choose_algorithm(prob, override="pdqp") == "pdqp"
        assert choose_algorithm(prob, override="auto") == "admm"
        with pytest.raises(ValueError):
            choose_algorithm(prob, override="simplex")


# ---------------------------------------------------------------------------
# accelerator
# ---------------------------------------------------------------------------
class TestAccelerator:
    @pytest.mark.parametrize("family,size", [("lasso", 20), ("eqqp", 24),
                                             ("portfolio", 20)])
    def test_converges_and_satisfies_kkt(self, family, size):
        prob = generate(family, size, seed=0)
        acc = PDQPAccelerator(prob)
        res = acc.run()
        assert res.converged
        assert res.algorithm == "pdqp"
        assert res.pcg_iterations == 0
        assert res.status.is_optimal
        assert res.iterations == res.admm_iterations
        assert solution_ok(prob, res.x, res.y, res.z,
                           eps_abs=1e-3, eps_rel=1e-3)

    def test_estimate_cycles_exact(self):
        prob = generate("lasso", 20, seed=0)
        acc = PDQPAccelerator(prob)
        res = acc.run()
        assert acc.estimate_cycles(res.admm_iterations,
                                   restarts=res.restarts) \
            == res.total_cycles

    def test_compiled_program_verifies(self):
        from repro.verify import verify_compiled_program
        prob = generate("eqqp", 16, seed=0)
        acc = PDQPAccelerator(prob)
        report = verify_compiled_program(acc.compiled)
        assert report.ok, report.render()

    def test_lowering_validates_structure(self):
        prob = generate("lasso", 20, seed=0)
        other = generate("eqqp", 16, seed=0)
        compiled = PDQPAccelerator(prob).compiled
        with pytest.raises(ValueError):
            PDQPAccelerator(other, compiled=compiled)

    def test_restarts_charged_and_counted(self):
        prob = generate("control", 6, seed=0)
        acc = PDQPAccelerator(prob, settings=PDQPSettings(
            restart_interval=50))
        res = acc.run()
        assert res.restarts == acc.restarts
        assert acc.estimate_cycles(res.admm_iterations,
                                   restarts=res.restarts) \
            == res.total_cycles

    def test_fault_injection_detected_and_recovered(self):
        prob = generate("control", 6, seed=0)
        injector = FaultInjector([
            Fault(kind="mac-flip", op_index=900, element=3, bit=62)])
        acc = PDQPAccelerator(prob, fault_injector=injector)
        res = acc.run()
        assert res.fault_events
        assert res.converged
        assert solution_ok(prob, res.x, res.y, res.z,
                           eps_abs=1e-3, eps_rel=1e-3)

    def test_program_has_expected_sections(self):
        compiled = compile_pdqp_program(6, 8, max_iter=100)
        assert set(compiled.section_cycles) \
            == {"prologue", "pdhg_body", "epilogue"}
        assert compiled.algorithm == "pdqp"
        assert compiled.body_section == "pdhg_body"
        assert compiled.loop_sections == {PDHG_LOOP: "pdhg_body"}

    def test_admm_result_surface_unchanged(self):
        prob = generate("lasso", 10, seed=0)
        res = RSQPAccelerator(prob).run()
        assert res.algorithm == "admm"
        assert res.iterations == res.admm_iterations
        assert res.termination_reason == res.status.reason


# ---------------------------------------------------------------------------
# serving + fleet integration
# ---------------------------------------------------------------------------
class TestServing:
    def test_pinned_pdqp_service(self):
        from repro.serving import SolverService
        prob = generate("lasso", 16, seed=0)
        with SolverService(mode="serial", workers=1,
                           algorithm="pdqp") as svc:
            res = svc.solve(prob)
            assert res.converged
            assert res.record.algorithm == "pdqp"
            assert res.record.backend == "rsqp"
            counters = svc.metrics_snapshot()["counters"]
            assert counters["serving_algo_selected_pdqp_total"] == 1
            assert counters["serving_algo_selected_total"] == 1

    def test_auto_service_small_uses_admm(self):
        from repro.serving import SolverService
        prob = generate("lasso", 10, seed=0)
        with SolverService(mode="serial", workers=1) as svc:
            res = svc.solve(prob)
            assert res.record.algorithm == "admm"

    def test_algorithm_part_of_cache_key(self):
        from repro.serving import SolverService
        from repro.serving.fingerprint import fingerprint_problem
        prob = generate("lasso", 10, seed=0)
        with SolverService(mode="serial", workers=1) as svc:
            fp = fingerprint_problem(prob, c=16)
            admm_key = svc.cache_key(fp, 16, "admm")
            pdqp_key = svc.cache_key(fp, 16, "pdqp")
            assert admm_key != pdqp_key
            assert pdqp_key.endswith(":pdqp")

    def test_invalid_algorithm_rejected(self):
        from repro.serving import SolverService
        with pytest.raises(ValueError):
            SolverService(mode="serial", algorithm="simplex")

    def test_fleet_race_pins_cycle_winner(self):
        from repro.fleet import FleetService
        prob = generate("lasso", 16, seed=0)
        svc = FleetService(algorithm="race", policy="match")
        svc.commission(prob)
        first = svc.solve(prob)
        repeat = svc.solve(prob)
        assert first.converged and repeat.converged
        assert repeat.record.calibrated
        report = svc.fleet_report()
        (winner,) = report["race_winners"].values()
        assert winner in ("admm", "pdqp")
        counters = svc.metrics_snapshot()["counters"]
        assert counters["fleet_race_solves_total"] == 2.0
        assert counters[f"fleet_race_winner_{winner}_total"] == 1.0
        # The race measured both algorithms; the winner must not cost
        # more cycles than the measured loser.
        svc.close()


# ---------------------------------------------------------------------------
# artifact build + poison healing
# ---------------------------------------------------------------------------
class TestArtifacts:
    def test_pdqp_artifact_roundtrip(self):
        from repro.faults import poison_artifact
        from repro.serving.arch_cache import ArchCache, build_artifact
        from repro.verify import ensure_artifact_verified
        prob = generate("eqqp", 16, seed=0)
        cache = ArchCache(capacity=4)
        artifact = build_artifact(prob, 8, cache, algorithm="pdqp")
        assert artifact.algorithm == "pdqp"
        ensure_artifact_verified(artifact, context="test")
        event = poison_artifact(artifact)
        assert event["section"] == "pdhg_body"
        from repro.exceptions import VerificationError
        with pytest.raises(VerificationError):
            ensure_artifact_verified(artifact, context="test")
