"""Integration tests: the simulated accelerator vs the reference solver,
plus the frequency/resource/power models."""

import numpy as np
import pytest

from repro.customization import (baseline_customization, customize_problem,
                                 parse_architecture)
from repro.hw import (FMAX_CAP_MHZ, RSQPAccelerator, estimate_resources,
                      fits_device, fmax_mhz, fpga_power_watts)
from repro.problems import (generate_control, generate_eqqp, generate_lasso,
                            generate_svm)
from repro.solver import OSQPSettings, solve


SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)


class TestAcceleratorNumerics:
    @pytest.mark.parametrize("make_problem", [
        lambda: generate_svm(10, seed=0),
        lambda: generate_control(4, horizon=5, seed=1),
        lambda: generate_lasso(8, seed=2),
        lambda: generate_eqqp(16, seed=3),
    ])
    def test_accelerator_matches_reference(self, make_problem):
        prob = make_problem()
        acc = RSQPAccelerator(prob, settings=SETTINGS)
        res = acc.run()
        assert res.converged
        ref = solve(prob, SETTINGS)
        assert ref.status.is_optimal
        # Same optimization problem, same algorithm: objectives agree.
        assert np.isclose(prob.objective(res.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)
        assert prob.primal_residual(res.x) < 1e-2

    def test_kkt_conditions_hold(self):
        prob = generate_svm(10, seed=4)
        res = RSQPAccelerator(prob, settings=SETTINGS).run()
        assert res.converged
        grad = prob.P.matvec(res.x) + prob.q + prob.A.rmatvec(res.y)
        assert np.abs(grad).max() < 1e-2

    def test_analytic_cycle_model_is_exact(self):
        prob = generate_control(4, horizon=4, seed=5)
        acc = RSQPAccelerator(prob, settings=SETTINGS)
        res = acc.run()
        estimate = acc.estimate_cycles(res.admm_iterations,
                                       res.pcg_iterations,
                                       rho_updates=acc.rho_updates)
        assert estimate == res.total_cycles

    def test_customized_fewer_cycles_than_baseline(self):
        prob = generate_svm(24, seed=6)
        custom = RSQPAccelerator(
            prob, customization=customize_problem(prob, 16),
            settings=SETTINGS).run()
        base = RSQPAccelerator(
            prob, customization=baseline_customization(prob, 16),
            settings=SETTINGS).run()
        assert custom.total_cycles < base.total_cycles
        # Both converge to the same problem's solution.
        assert custom.converged and base.converged
        assert np.isclose(prob.objective(custom.x), prob.objective(base.x),
                          rtol=1e-2, atol=1e-3)

    def test_solve_seconds_and_energy(self):
        prob = generate_svm(10, seed=7)
        res = RSQPAccelerator(prob, settings=SETTINGS).run()
        assert res.solve_seconds > 0
        assert np.isclose(res.energy_joules,
                          res.solve_seconds * res.power_watts)

    @pytest.mark.parametrize("verify", [True, False])
    def test_program_for_other_algorithm_rejected(self, verify):
        from repro.hw import (PDQPAccelerator, compile_for_customization,
                              compile_pdqp_for_customization)
        prob = generate_control(2, horizon=2, seed=9)
        cust = customize_problem(prob, 8)
        n, m = prob.n, prob.m
        admm = compile_for_customization(cust, n, m, max_admm_iter=10,
                                         max_pcg_iter=10)
        pdqp = compile_pdqp_for_customization(cust, n, m, max_iter=10)
        with pytest.raises(ValueError, match="needs a 'admm' program"):
            RSQPAccelerator(prob, cust, compiled=pdqp, verify=verify)
        with pytest.raises(ValueError, match="needs a 'pdqp' program"):
            PDQPAccelerator(prob, cust, compiled=admm, verify=verify)

    def test_cycle_breakdown_reported(self):
        prob = generate_svm(10, seed=8)
        res = RSQPAccelerator(prob, settings=SETTINGS).run()
        assert "SpMV" in res.stats.by_class
        assert "VecDup" in res.stats.by_class
        assert res.stats.by_class["SpMV"] > 0


class TestFrequencyModel:
    def test_table3_fmax_within_tolerance(self):
        # Paper Table 3 synthesis results; model should track within ~10%.
        rows = {
            "16{e}": 300, "16{16a1e}": 276, "32{32a4d1f}": 173,
            "16{16a2d1e}": 273, "64{64a4e1g}": 121, "32{4d1f}": 300,
            "32{32a4d2e1f}": 179, "32{4d2e1f}": 300, "32{16b4d1f}": 257,
            "64{4e1g}": 270, "64{8d4e1g}": 251,
        }
        for name, expected in rows.items():
            modeled = fmax_mhz(parse_architecture(name))
            assert abs(modeled - expected) / expected < 0.10, name

    def test_cap_at_300(self):
        assert fmax_mhz(parse_architecture("16{e}")) == FMAX_CAP_MHZ

    def test_monotone_in_routing_complexity(self):
        simple = fmax_mhz(parse_architecture("64{1g}"))
        complex_ = fmax_mhz(parse_architecture("64{64a1g}"))
        assert complex_ < simple


class TestResourceModel:
    def test_dsp_exactly_5c(self):
        for name, dsp in [("16{e}", 80), ("32{4d1f}", 160),
                          ("64{4e1g}", 320)]:
            assert estimate_resources(parse_architecture(name)).dsp == dsp

    def test_table3_ff_lut_within_tolerance(self):
        rows = {
            "16{e}": (12218, 8556),
            "16{16a1e}": (17190, 12502),
            "32{32a4d1f}": (32441, 23648),
            "64{64a4e1g}": (60202, 50405),
            "32{4d1f}": (22958, 13880),
            "64{8d4e1g}": (44403, 24245),
        }
        for name, (ff, lut) in rows.items():
            est = estimate_resources(parse_architecture(name))
            assert abs(est.ff - ff) / ff < 0.10, name
            assert abs(est.lut - lut) / lut < 0.12, name

    def test_all_table3_designs_fit_u50(self):
        for name in ["16{e}", "32{32a4d2e1f}", "64{64a4e1g}"]:
            assert fits_device(parse_architecture(name))

    def test_utilization_fractions(self):
        est = estimate_resources(parse_architecture("16{e}"))
        util = est.utilization()
        assert 0 < util["dsp"] < 1
        assert 0 < util["lut"] < 1


class TestPowerModel:
    def test_power_near_19w(self):
        # Paper: steady ~19 W across the benchmark.
        for name in ["16{e}", "32{4d1f}", "64{8d4e1g}", "64{64a4e1g}"]:
            watts = fpga_power_watts(parse_architecture(name))
            assert 18.0 <= watts <= 20.0, name

    def test_bigger_design_draws_more(self):
        small = fpga_power_watts(parse_architecture("16{e}"))
        big = fpga_power_watts(parse_architecture("64{64a4e1g}"))
        assert big > small


class TestWarmStart:
    def test_warm_start_reduces_iterations(self):
        prob = generate_svm(14, seed=9)
        cold = RSQPAccelerator(prob, settings=SETTINGS)
        cold_res = cold.run()
        assert cold_res.converged
        warm = RSQPAccelerator(prob, settings=SETTINGS)
        warm.warm_start(x=cold_res.x, y=cold_res.y)
        warm_res = warm.run()
        assert warm_res.converged
        assert warm_res.admm_iterations <= cold_res.admm_iterations
        assert warm_res.total_cycles <= cold_res.total_cycles

    def test_warm_start_same_solution(self):
        prob = generate_svm(14, seed=10)
        cold = RSQPAccelerator(prob, settings=SETTINGS)
        cold_res = cold.run()
        warm = RSQPAccelerator(prob, settings=SETTINGS)
        warm.warm_start(x=cold_res.x, y=cold_res.y)
        warm_res = warm.run()
        assert np.allclose(warm_res.x, cold_res.x, atol=1e-2)
