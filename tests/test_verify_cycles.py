"""Pass 3 (cycle bounds): static bounds bracket the interpreter's
dynamic counts; the compiled cost model is cross-checked."""

import pytest

from repro.hw import RSQPAccelerator
from repro.hw.isa import Control, Loop, Program, ScalarOp, ScalarOpKind
from repro.problems import generate_control, generate_svm
from repro.solver import OSQPSettings
from repro.verify import (CycleBounds, block_bounds, program_bounds,
                          verify_compiled)

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=60)


class TestBoundsVsInterpreter:
    @pytest.mark.parametrize("make_problem", [
        lambda: generate_svm(10, seed=0),
        lambda: generate_control(4, horizon=4, seed=1),
    ])
    def test_dynamic_count_within_static_bounds(self, make_problem):
        acc = RSQPAccelerator(make_problem(), settings=SETTINGS,
                              backend="interpret")
        bounds = program_bounds(acc.compiled.program,
                                acc.compiled.context)
        assert 0 < bounds.min_cycles <= bounds.max_cycles
        # Run the full lowered program through the interpreter on the
        # freshly downloaded machine: the dynamic total must land
        # inside the static bracket, wherever the Controls fire.
        stats = acc.machine.run(acc.compiled.program)
        assert bounds.contains(stats.total_cycles), (
            f"{stats.total_cycles} outside "
            f"[{bounds.min_cycles}, {bounds.max_cycles}]")

    def test_unconverging_run_still_bracketed(self):
        tight = OSQPSettings(eps_abs=1e-14, eps_rel=1e-14, max_iter=40)
        acc = RSQPAccelerator(generate_svm(10, seed=2), settings=tight,
                              backend="interpret")
        bounds = program_bounds(acc.compiled.program,
                                acc.compiled.context)
        stats = acc.machine.run(acc.compiled.program)
        assert bounds.contains(stats.total_cycles)


class TestBlockBounds:
    def test_straight_line_is_exact(self):
        items = [ScalarOp(ScalarOpKind.MOV, "a", "s"),
                 ScalarOp(ScalarOpKind.MOV, "b", "a")]
        bounds = block_bounds(items, None)  # ScalarOp cost ignores context
        assert bounds == CycleBounds(2, 2)

    def test_loop_without_control_min_is_one_trip(self):
        loop = Loop(body=[ScalarOp(ScalarOpKind.MOV, "a", "s")],
                    max_iter=5, name="l")
        bounds = block_bounds([loop], None)
        assert bounds.min_cycles == 1   # one full trip
        assert bounds.max_cycles == 5   # max_iter trips

    def test_loop_min_is_prefix_through_first_control(self):
        loop = Loop(body=[ScalarOp(ScalarOpKind.MOV, "a", "s"),
                          Control("a", "thr"),
                          ScalarOp(ScalarOpKind.MOV, "b", "s")],
                    max_iter=4, name="l")
        bounds = block_bounds([loop], None)
        assert bounds.min_cycles == 2   # mov + control, exit fires
        assert bounds.max_cycles == 4 * 3

    def test_dead_loop_costs_nothing(self):
        loop = Loop(body=[ScalarOp(ScalarOpKind.MOV, "a", "s")],
                    max_iter=0, name="dead")
        assert block_bounds([loop], None) == CycleBounds(0, 0)

    def test_program_bounds_wraps_block(self):
        program = Program([ScalarOp(ScalarOpKind.MOV, "a", "s")])
        assert program_bounds(program, None) == CycleBounds(1, 1)


class TestCompiledCostCrossCheck:
    def make_acc(self):
        return RSQPAccelerator(generate_svm(10, seed=3),
                               settings=SETTINGS)

    def test_compiler_costs_are_consistent(self):
        report = verify_compiled(self.make_acc().compiled)
        assert report.ok, report.render()

    def test_inflated_section_cost_is_caught(self):
        compiled = self.make_acc().compiled
        compiled.prologue_cycles += 7
        report = verify_compiled(compiled)
        codes = {d.code for d in report.errors}
        assert codes == {"cycle-cost-mismatch"}
        assert any("prologue" in d.message for d in report.errors)

    def test_missing_section_table_is_caught(self):
        compiled = self.make_acc().compiled
        compiled._sections = {}
        report = verify_compiled(compiled)
        assert "missing-sections" in {d.code for d in report.errors}

    def test_claimed_costs_bracketized(self):
        """The analytic per-trip costs, scaled by actual trip counts,
        stay inside the whole-program static bounds."""
        acc = self.make_acc()
        res = acc.run()
        bounds = program_bounds(acc.compiled.program,
                                acc.compiled.context)
        estimate = acc.estimate_cycles(res.admm_iterations,
                                       res.pcg_iterations,
                                       rho_updates=acc.rho_updates)
        refresh = estimate - acc.compiled.estimate_cycles(
            res.admm_iterations, res.pcg_iterations)
        assert bounds.contains(estimate - refresh)
