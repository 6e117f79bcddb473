"""Codegen-verifier tests: seeded defects must be caught, real units
must pass.

The mutation tests lift real effect IRs (the same static lift the
``--codegen`` CLI gate runs), seed a single classic codegen defect —
an off-by-one loop bound, a dropped write-set entry, a reassociated
expression, a mischarged cycle slot — and assert the verifier reports
a *located* diagnostic with the stable code for exactly that defect
class. The sweep tests assert the converse: every unit the backends
would actually fuse, for both algorithms at one lane (the solo unit)
and at two, verifies with zero errors (no false positives), and every
unit the runtime builds is among the lifted ones.

Runs without hypothesis (the property variants skip) and without
cffi (the lift is static by construction).
"""

import re
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # the CI lint job has no hypothesis
    HAVE_HYPOTHESIS = False

from repro.batch import BatchAccelerator
from repro.exceptions import VerificationError
from repro.experiments.runner import choose_width
from repro.hw import accelerator_class, cjit
from repro.hw.batched import BatchExecutor, BatchMachine
from repro.problems import benchmark_suite, perturb_numeric
from repro.solver import OSQPSettings
from repro.serving.arch_cache import build_artifact
from repro.verify import codegen as cg
from repro.verify import (DIAGNOSTIC_CODES, Location, VerificationReport,
                          codegen_report_for_artifact, diagnostics_table,
                          ensure_batch_verified, ensure_codegen_verified,
                          verify_effect_ir)

MUTABLE_BOUNDS = ("flat", "laned", "reduce")

CODEGEN_CODES = (
    "codegen-shape-mismatch", "codegen-index-out-of-bounds",
    "codegen-alias-hazard", "codegen-order-mismatch",
    "codegen-scalar-slot-mismatch",
    "codegen-write-set-miss", "codegen-expression-mismatch",
    "codegen-kernel-body-drift", "codegen-cycle-mismatch",
    "codegen-lane-mask-missing", "codegen-coverage",
)


@lru_cache(maxsize=None)
def suite_entry():
    return list(benchmark_suite(count=1, scale=0.25, seed=7))[0]


@lru_cache(maxsize=None)
def artifact(algorithm):
    entry = suite_entry()
    c = choose_width(entry.problem.nnz)
    return build_artifact(entry.problem, c, algorithm=algorithm)


@lru_cache(maxsize=None)
def lifted_units(algorithm):
    """Every unit the backends would fuse at widths 1 and 2, as
    (ir, instrs, machine)."""
    problem = suite_entry().problem
    matrices = {"P": problem.P, "A": problem.A, "At": problem.A.transpose()}
    units, _skipped = cg.lift_units(artifact(algorithm).compiled, matrices,
                                    (1, 2))
    return tuple(units)


def unit_for(width, algorithm="admm", index=0):
    """The ``index``-th lifted unit of ``width`` lanes in pre-order (for
    ADMM, 1 is the nested PCG loop)."""
    units = [unit for unit in lifted_units(algorithm)
             if unit[0].batch == width]
    if index >= len(units):
        pytest.skip(f"no width-{width} unit #{index} in the {algorithm} "
                    f"program")
    return units[index]


#: Units the parametrized mutations run on: (width, algorithm, index);
#: the ``loop-*`` ids are the width-1 units a solo machine runs.
MUTATED_UNITS = [(1, "admm", 0), (1, "admm", 1),
                 (1, "pdqp", 0), (2, "admm", 0),
                 (2, "pdqp", 0)]
MUTATED_IDS = ["loop-admm", "loop-admm-pcg", "loop-pdqp", "batch-loop-admm",
               "batch-loop-pdqp"]


def clone(ir):
    """Shallow clone safe for statement/table swaps (statements are
    frozen; mutations always build replacements, never edit in place)."""
    return replace(ir, statements=list(ir.statements))


def codes_of(report):
    return {diag.code for diag in report.errors}


# ---------------------------------------------------------------------------
# seeded defects -> located diagnostics with stable codes

@pytest.mark.parametrize("width,algorithm,index", MUTATED_UNITS,
                         ids=MUTATED_IDS)
def test_seeded_off_by_one_bound_is_caught(width, algorithm, index):
    ir, instrs, machine = unit_for(width, algorithm, index)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.index in MUTABLE_BOUNDS and s.bound > 0)
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt, bound=stmt.bound + 1)
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-index-out-of-bounds"]
    assert found, report.render()
    assert found[0].location.artifact.startswith("codegen")
    assert str(stmt.instr_index) in found[0].location.path


def test_seeded_phantom_vector_write_is_caught():
    ir, instrs, machine = unit_for(2)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.dst is not None and s.dst.space == "vb")
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt,
                                      dst=replace(stmt.dst, name="phantom"))
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-write-set-miss" in codes_of(report), report.render()


@pytest.mark.parametrize("width,algorithm,index", MUTATED_UNITS,
                         ids=MUTATED_IDS)
def test_seeded_rewritten_expression_is_caught(width, algorithm, index):
    ir, instrs, machine = unit_for(width, algorithm, index)
    pos, stmt = next(
        (i, s) for i, s in enumerate(ir.statements)
        if s.expr and s.op in ("copy", "ewmul", "axpby", "scale_add",
                               "vecdup"))
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt,
                                      expr=stmt.expr.replace("=", "= 2.0 *",
                                                             1))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-expression-mismatch"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


def test_seeded_mischarged_cycle_slot_is_caught():
    for width in (1, 2):
        ir, instrs, machine = unit_for(width)
        assert ir.charges, f"width-{width} unit has no charge table"
        charges = list(ir.charges)
        cycles, by_class, count = charges[0]
        charges[0] = (cycles + 1, by_class, count)
        mutated = replace(ir, statements=list(ir.statements),
                          charges=charges)
        report = verify_effect_ir(mutated, instrs, machine)
        assert "codegen-cycle-mismatch" in codes_of(report), \
            report.render()


@pytest.mark.parametrize("op,guard", [
    ("axpby", "if (m0[j]) "),         # an elementwise write
    ("dot", "if (m1[j]) "),           # a reduction's commit (PCG frame)
    ("control", "if (m0[j] && "),     # an exit test
    ("scalar:div", "if (m1[j] && "),  # a trap check (PCG frame)
])
def test_seeded_unmasked_batch_loop_statement_is_caught(op, guard):
    ir, instrs, machine = unit_for(2)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == op and guard in s.text)
    mutated = clone(ir)
    # Drop the mask: a guarded write becomes unconditional, a masked
    # test tests every lane.
    unguarded = "if (" if guard.endswith("&& ") else ""
    mutated.statements[pos] = replace(
        stmt, text=stmt.text.replace(guard, unguarded, 1))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-lane-mask-missing"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


def test_seeded_wrong_frame_exit_is_caught():
    ir, instrs, machine = unit_for(2)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == "control" and "goto loop_exit_1" in s.text)
    mutated = clone(ir)
    mutated.statements[pos] = replace(
        stmt, text=stmt.text.replace("loop_exit_1", "loop_exit_0"))
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-lane-mask-missing" in codes_of(report), report.render()


def test_seeded_unguarded_b2_write_is_caught():
    """Each guarded write of a two-lane unit, its guard removed."""
    ir, instrs, machine = unit_for(2)
    positions = [i for i, s in enumerate(ir.statements)
                 if re.search(r"if \(m\d+\[j\]\) ", s.text)]
    assert positions
    for pos in positions:
        stmt = ir.statements[pos]
        mutated = clone(ir)
        mutated.statements[pos] = replace(
            stmt, text=re.sub(r"if \(m\d+\[j\]\) ", "", stmt.text,
                              count=1))
        report = verify_effect_ir(mutated, instrs, machine)
        assert "codegen-lane-mask-missing" in codes_of(report), \
            report.render()


def test_seeded_b1_control_without_exit_is_caught():
    """A one-lane unit drops its write guards only because a Control
    that clears the lane leaves the frame: one that does not is
    rejected."""
    ir, instrs, machine = unit_for(1)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == "control")
    exit_line = next(line for line in stmt.text.splitlines(True)
                     if "goto loop_exit_" in line)
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt,
                                      text=stmt.text.replace(exit_line, ""))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-lane-mask-missing"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


def test_seeded_b1_missing_trip_head_exit_is_caught():
    """Every frame's trip head must leave the frame with no live lane:
    the nested PCG frame's entry, and frame 0's in the function head."""
    ir, instrs, machine = unit_for(1, "admm")
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == "loop")
    mutated = clone(ir)
    mutated.statements[pos] = replace(
        stmt, text=stmt.text.replace("if (!live) goto loop_exit_1;", ""))
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-lane-mask-missing" in codes_of(report), report.render()
    headless = replace(ir, statements=list(ir.statements),
                       source=ir.source.replace(
                           "if (!live) goto loop_exit_0;", "", 1))
    report = verify_effect_ir(headless, instrs, machine)
    assert "codegen-lane-mask-missing" in codes_of(report), report.render()


def test_b1_units_carry_no_guards():
    """The one-lane unit is the solo fast path: a literal lane count
    and no per-write or per-trap mask tests."""
    for algorithm in ("admm", "pdqp"):
        ir, _instrs, _machine = unit_for(1, algorithm)
        assert "const long bt = 1;" in ir.source
        assert "L[0]" not in ir.source.split("for (long it0", 1)[0]
        assert not re.search(r"if \(m\d+\[j\]\) ", ir.source)
        assert not re.search(r"m\d+\[j\] && .* return", ir.source)


def test_seeded_reordered_statements_are_caught():
    ir, instrs, machine = unit_for(2)
    mutated = clone(ir)
    a, b = mutated.statements[0], mutated.statements[1]
    mutated.statements[0] = replace(b)
    mutated.statements[1] = replace(a)
    report = verify_effect_ir(mutated, instrs, machine)
    assert codes_of(report) & {"codegen-order-mismatch",
                               "codegen-expression-mismatch"}, \
        report.render()


if HAVE_HYPOTHESIS:

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_bound_inflation_is_caught(data):
        ir, instrs, machine = unit_for(data.draw(st.sampled_from([1, 2])))
        candidates = [(i, s) for i, s in enumerate(ir.statements)
                      if s.index in MUTABLE_BOUNDS and s.bound > 0]
        pos, stmt = data.draw(st.sampled_from(candidates))
        delta = data.draw(st.integers(min_value=1, max_value=10_000))
        mutated = clone(ir)
        mutated.statements[pos] = replace(stmt, bound=stmt.bound + delta)
        report = verify_effect_ir(mutated, instrs, machine)
        assert "codegen-index-out-of-bounds" in codes_of(report)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_charge_perturbation_is_caught(data):
        ir, instrs, machine = unit_for(1)
        charges = list(ir.charges)
        slot = data.draw(st.integers(min_value=0,
                                     max_value=len(charges) - 1))
        delta = data.draw(st.integers(min_value=-50,
                                      max_value=50).filter(bool))
        cycles, by_class, count = charges[slot]
        charges[slot] = (cycles + delta, by_class, count)
        mutated = replace(ir, statements=list(ir.statements),
                          charges=charges)
        report = verify_effect_ir(mutated, instrs, machine)
        assert "codegen-cycle-mismatch" in codes_of(report)


# ---------------------------------------------------------------------------
# no false positives over real units

@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
def test_every_lifted_unit_verifies_clean(algorithm):
    units = lifted_units(algorithm)
    assert units
    for ir, instrs, machine in units:
        report = verify_effect_ir(ir, instrs, machine)
        assert not report.errors, report.render()


def test_both_widths_are_covered():
    units = [ir for algorithm in ("admm", "pdqp")
             for ir, _instrs, _machine in lifted_units(algorithm)]
    assert {ir.tier for ir in units} == set(cg.TIERS) == {"loop"}
    assert {ir.batch for ir in units} == {1, 2}


@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
def test_runtime_units_are_lifted(algorithm, monkeypatch):
    """A solo solve builds exactly the units a one-lane batch builds,
    and every unit the runtime builds is one the static lift verifies
    at its width (nested loops included: a solo ADMM solve fuses its
    PCG loop on its own)."""
    if not cjit.available():
        pytest.skip("no C toolchain: the runtime fuses no loop")
    art = artifact(algorithm)
    problem = suite_entry().problem
    built = []
    verify = cg.ensure_codegen_verified

    def spy(ir, instrs, machine, **kwargs):
        built.append((ir.batch, ir.digest()))
        return verify(ir, instrs, machine, **kwargs)

    def run(problems):
        built.clear()
        BatchAccelerator(problems, art.customization, settings,
                         compiled=art.compiled, algorithm=algorithm,
                         max_pcg_iter=art.max_pcg_iter).run()
        return set(built)

    monkeypatch.setattr(cg, "ensure_codegen_verified", spy)
    settings = OSQPSettings()
    accelerator_class(algorithm).bind(
        problem, art.customization, settings, art.compiled,
        max_pcg_iter=art.max_pcg_iter).run()
    solo = set(built)
    one_lane = run([problem])
    two_lanes = run([problem, perturb_numeric(problem, seed=1)])
    assert solo and solo == one_lane
    assert {width for width, _digest in solo} == {1}
    assert {width for width, _digest in two_lanes} == {2}
    lifted = {(ir.batch, ir.digest())
              for ir, _instrs, _machine in lifted_units(algorithm)}
    assert solo <= lifted
    assert two_lanes <= lifted


@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
def test_artifact_report_passes(algorithm):
    report = codegen_report_for_artifact(artifact(algorithm),
                                         suite_entry().problem, batch=2)
    assert not report.errors, report.render()
    assert "codegen-coverage" in report.codes()


# ---------------------------------------------------------------------------
# guard wiring

def test_ensure_codegen_verified_raises_with_report():
    ir, instrs, machine = unit_for(1)
    charges = list(ir.charges)
    cycles, by_class, count = charges[0]
    charges[0] = (cycles + 3, by_class, count)
    mutated = replace(ir, statements=list(ir.statements), charges=charges)
    with pytest.raises(VerificationError) as excinfo:
        ensure_codegen_verified(mutated, instrs, machine)
    assert "codegen-cycle-mismatch" in {
        d.code for d in excinfo.value.report.errors}


def test_ensure_codegen_verified_memoizes_acceptance():
    ir, instrs, machine = unit_for(1, "pdqp")
    ensure_codegen_verified(ir, instrs, machine)
    assert cg._VERIFIED.get(ir.digest()) is True
    ensure_codegen_verified(ir, instrs, machine)  # cache hit, no raise


def test_batch_guard_runs_codegen_pass_once():
    art = artifact("admm")
    problem = suite_entry().problem
    ensure_batch_verified(art, [problem, problem])
    assert art.codegen_verified is True


def test_env_kill_switch_disables_runtime_guard(monkeypatch):
    machine = BatchMachine(4, {}, 1)  # a solo machine: one lane
    monkeypatch.setenv("REPRO_VERIFY_CODEGEN", "0")
    assert BatchExecutor(machine, jit=False).verify is False
    monkeypatch.delenv("REPRO_VERIFY_CODEGEN")
    assert BatchExecutor(machine, jit=False).verify is True


# ---------------------------------------------------------------------------
# diagnostic-code registry and docs drift

def test_registry_contains_every_codegen_code():
    for code in CODEGEN_CODES:
        assert code in DIAGNOSTIC_CODES


def test_registry_rejects_unregistered_codes():
    report = VerificationReport(subject="t")
    with pytest.raises(ValueError):
        report.error("definitely-not-a-registered-code", "boom",
                     Location("t"))


def test_docs_table_matches_registry():
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "VERIFY.md").read_text()
    match = re.search(r"<!-- diagnostics-table:begin -->\n(.*?)"
                      r"<!-- diagnostics-table:end -->", doc, re.S)
    assert match, "docs/VERIFY.md lost its diagnostics-table markers"
    assert match.group(1).strip() == diagnostics_table().strip(), (
        "docs/VERIFY.md diagnostics table drifted from the registry; "
        "regenerate it with `python -m repro.verify --codes`")
