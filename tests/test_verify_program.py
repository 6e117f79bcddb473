"""Pass 1 (program verifier): compiler output is accepted unchanged,
seeded defects are rejected with located diagnostics."""

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.hw.compiler import compile_osqp_program
from repro.hw.isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop,
                          Program, ScalarOp, ScalarOpKind, SpMV, VecDup,
                          VectorOp, VectorOpKind)
from repro.verify import (ProgramContract, Severity, accelerator_contract,
                          pdqp_contract, verify_program)

#: Minimal contract for hand-built programs.
CONTRACT = ProgramContract(hbm=frozenset({"v", "w"}),
                           scalars=frozenset({"s", "thr"}),
                           matrices=frozenset({"A"}))


def fresh_compiled():
    return compile_osqp_program(12, 8, max_admm_iter=50, max_pcg_iter=20)


def flat_instructions(items):
    for item in items:
        if isinstance(item, Loop):
            yield from flat_instructions(item.body)
        else:
            yield item


def binary_scalar_ops(program):
    return [op for op in flat_instructions(program.instructions)
            if isinstance(op, ScalarOp) and op.op in BINARY_SCALAR_OPS]


class TestAcceptance:
    def test_compiler_program_is_clean(self):
        report = verify_program(fresh_compiled().program)
        assert report.ok
        assert not report.warnings
        assert not report.diagnostics

    def test_accelerator_contract_matches_download(self):
        from repro.hw import PDQPAccelerator, RSQPAccelerator
        from repro.problems import generate_control
        prob = generate_control(2, horizon=2, seed=0)
        for contract, accelerator in ((accelerator_contract(),
                                       RSQPAccelerator),
                                      (pdqp_contract(), PDQPAccelerator)):
            machine = accelerator(prob, c=8).machine
            assert set(machine.hbm) == contract.hbm
            assert set(machine.scalars) == contract.scalars
            assert set(machine.matrices) == contract.matrices


class TestSeededDefects:
    def test_dropped_init_is_use_before_def(self):
        compiled = fresh_compiled()
        program = compiled.program
        # Drop the prologue load of "q" — the objective vector every
        # ADMM iteration reads.
        drop = next(i for i, item in enumerate(program.instructions)
                    if isinstance(item, DataTransfer)
                    and item.direction == "load" and item.name == "q")
        del program.instructions[drop]
        report = verify_program(program)
        assert not report.ok
        assert "use-before-def" in {d.code for d in report.errors}

    def test_diagnostic_carries_generating_site(self):
        compiled = fresh_compiled()
        program = compiled.program
        drop = next(i for i, item in enumerate(program.instructions)
                    if isinstance(item, DataTransfer)
                    and item.direction == "load" and item.name == "q")
        del program.instructions[drop]
        report = verify_program(program)
        sites = [d.location.site for d in report.errors
                 if d.location.site]
        assert sites, "expected at least one located diagnostic"
        assert any(site.startswith("compiler.") for site in sites)
        # The path names the position inside the loop nest.
        assert any(d.location.path for d in report.errors)

    def test_scalar_arity_mutation_is_caught(self):
        compiled = fresh_compiled()
        victim = binary_scalar_ops(compiled.program)[0]
        object.__setattr__(victim, "src2", None)  # bypass __post_init__
        report = verify_program(compiled.program)
        assert "scalar-arity" in {d.code for d in report.errors}

    def test_fusion_raw_hazard_swapped_dup(self):
        program = Program([
            DataTransfer("load", "v"),
            VecDup("v", "A"),
            SpMV("A", "A", "out"),
        ])
        assert verify_program(program, CONTRACT).ok
        # Swap: the SpMV now reads the bank before the VecDup that
        # populates it, inside one fusion window.
        program.instructions[1], program.instructions[2] = \
            program.instructions[2], program.instructions[1]
        report = verify_program(program, CONTRACT)
        codes = {d.code for d in report.errors}
        assert "fusion-raw-hazard" in codes

    def test_spmv_reading_vector_buffer_is_rejected(self):
        program = Program([
            DataTransfer("load", "v"),
            SpMV("A", "v", "out"),
        ])
        report = verify_program(program, CONTRACT)
        assert "spmv-src-not-in-cvb" in {d.code for d in report.errors}

    def test_unknown_cvb_bank(self):
        program = Program([
            DataTransfer("load", "v"),
            VecDup("v", "B"),
        ])
        report = verify_program(program, CONTRACT)
        assert "unknown-cvb-bank" in {d.code for d in report.errors}

    def test_control_outside_loop(self):
        program = Program([Control("s", "thr")])
        report = verify_program(program, CONTRACT)
        assert "control-outside-loop" in {d.code for d in report.errors}


class TestLoopAnalysis:
    def test_unreachable_loop_body_warns(self):
        program = Program([Loop(body=[ScalarOp(ScalarOpKind.MOV, "x", "s")],
                                max_iter=0, name="dead")])
        report = verify_program(program, CONTRACT)
        assert "unreachable-code" in {d.code for d in report.warnings}
        assert report.ok  # warning, not error

    def test_loop_without_exit_warns(self):
        program = Program([Loop(body=[ScalarOp(ScalarOpKind.MOV, "x", "s")],
                                max_iter=3, name="spin")])
        report = verify_program(program, CONTRACT)
        assert "no-loop-exit" in {d.code for d in report.warnings}

    def test_static_exit_condition_warns(self):
        # Neither the residual nor the threshold is recomputed inside
        # the body: the Control either fires immediately or never.
        program = Program([Loop(
            body=[VectorOp(VectorOpKind.COPY, "w2", ("w",)),
                  Control("s", "thr")],
            max_iter=3, name="stuck")])
        report = verify_program(program, CONTRACT)
        assert "static-exit-condition" in {d.code for d in report.warnings}

    def test_defs_after_exit_do_not_escape_loop(self):
        # "late" is only defined after the Control, so a trip that
        # exits at the Control never wrote it; reading it after the
        # loop is a use-before-def.
        program = Program([
            Loop(body=[ScalarOp(ScalarOpKind.MOV, "r", "s"),
                       Control("r", "thr"),
                       ScalarOp(ScalarOpKind.MOV, "late", "s")],
                 max_iter=3, name="l"),
            ScalarOp(ScalarOpKind.MOV, "use", "late"),
        ])
        report = verify_program(program, CONTRACT)
        errors = [d for d in report.errors if d.code == "use-before-def"]
        assert errors
        assert "'late'" in errors[0].message

    def test_defs_before_exit_do_escape_loop(self):
        program = Program([
            Loop(body=[ScalarOp(ScalarOpKind.MOV, "early", "s"),
                       ScalarOp(ScalarOpKind.MOV, "r", "s"),
                       Control("r", "thr")],
                 max_iter=3, name="l"),
            ScalarOp(ScalarOpKind.MOV, "use", "early"),
        ])
        assert verify_program(program, CONTRACT).ok


class TestMutationProperty:
    @given(st.data())
    @hyp_settings(max_examples=20, deadline=None)
    def test_any_scalar_arity_mutation_is_caught(self, data):
        compiled = fresh_compiled()
        candidates = binary_scalar_ops(compiled.program)
        victim = data.draw(st.sampled_from(candidates))
        object.__setattr__(victim, "src2", None)
        report = verify_program(compiled.program)
        assert "scalar-arity" in {d.code for d in report.errors}

    @pytest.mark.parametrize("bank", ["P", "A", "At"])
    def test_dropping_first_vecdup_of_each_bank_is_caught(self, bank):
        """Removing a bank's first-ever duplication leaves its first
        SpMV reading an undefined CVB bank."""
        compiled = fresh_compiled()

        def drop_first(items):
            for i, item in enumerate(items):
                if isinstance(item, VecDup) and item.cvb == bank:
                    del items[i]
                    return True
                if isinstance(item, Loop) and drop_first(item.body):
                    return True
            return False

        assert drop_first(compiled.program.instructions)
        report = verify_program(compiled.program)
        assert not report.ok
        assert "use-before-def" in {d.code for d in report.errors}


class TestSeverity:
    def test_severity_ordering_and_labels(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label() == "error"

    def test_report_render_mentions_counts(self):
        program = Program([Control("s", "thr")])
        report = verify_program(program, CONTRACT)
        text = report.render()
        assert "error" in text
        assert "control-outside-loop" in text
