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

import hashlib
import re
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
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
from repro.hw import (Control, ScalarOp, ScalarOpKind, VectorOp,
                      VectorOpKind, accelerator_class, cjit)
from repro.hw.batched import BatchExecutor, BatchMachine
from repro.hw.compiled import _LoopBuilder, dot_group_source
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


# ---------------------------------------------------------------------------
# the one-lane grouped SpMV: row order, run table and row kernel


def grouped_spmv(algorithm="admm"):
    """A one-lane unit, the position of its first SpMV statement, and
    that statement."""
    ir, instrs, machine = unit_for(1, algorithm)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == "spmv")
    return ir, instrs, machine, pos, stmt


def with_arrays(ir, pos, stmt, ro=None, rl=None):
    col, ip, old_ro, old_rl = stmt.index_arrays
    mutated = clone(ir)
    mutated.statements[pos] = replace(
        stmt, index_arrays=(col, ip, old_ro if ro is None else ro,
                            old_rl if rl is None else rl))
    return mutated


def test_grouped_spmv_unit_shape():
    """Every one-lane SpMV is one call of the head's row kernel, whose
    row order and run table come from the matrix's pattern."""
    for algorithm in ("admm", "pdqp"):
        ir, _instrs, machine, _pos, _stmt = grouped_spmv(algorithm)
        assert ir.source.startswith(cg._INCLUDES + cg._SPMV_GROUPED)
        spmvs = [s for s in ir.statements if s.op == "spmv"]
        assert spmvs
        for stmt in spmvs:
            assert cg._norm(stmt.text) == cg._LOOP_SPMV_CALL
            col, ip, ro, rl = stmt.index_arrays
            kernel = machine.matrices[stmt.matrix].kernel
            groups = kernel.row_groups()
            assert ro is groups[0] and rl is groups[1]
            assert col is kernel.col and ip is kernel.ip
            lens = np.diff(ip)
            assert np.array_equal(lens[ro], np.sort(lens, kind="stable"))


def test_seeded_grouped_duplicate_row_is_caught():
    ir, instrs, machine, pos, stmt = grouped_spmv()
    ro = stmt.index_arrays[2].copy()
    assert ro.size >= 2
    ro[1] = ro[0]
    report = verify_effect_ir(with_arrays(ir, pos, stmt, ro=ro), instrs,
                              machine)
    assert "codegen-shape-mismatch" in codes_of(report), report.render()
    ro[1] = ro.size  # past the last row
    report = verify_effect_ir(with_arrays(ir, pos, stmt, ro=ro), instrs,
                              machine)
    assert "codegen-index-out-of-bounds" in codes_of(report), \
        report.render()


def test_seeded_grouped_run_length_mismatch_is_caught():
    """A run whose length is not its rows' stored length would read the
    next row's entries (or past the streams)."""
    ir, instrs, machine, pos, stmt = grouped_spmv()
    rl = stmt.index_arrays[3].copy()
    rl[-2] += 1  # the longest run claims one entry more per row
    report = verify_effect_ir(with_arrays(ir, pos, stmt, rl=rl), instrs,
                              machine)
    found = [d for d in report.errors
             if d.code == "codegen-index-out-of-bounds"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


def test_seeded_grouped_run_count_slot_is_caught():
    """The ``ng`` L slot must hold the number of runs: a table and
    record that agree on another count are rejected, as is a table
    that disagrees with the record."""
    ir, instrs, machine, pos, stmt = grouped_spmv()
    (slot, runs), = stmt.len_slots
    assert runs == stmt.index_arrays[3].shape[0] // 2
    lens = list(ir.lens)
    lens[slot] = runs + 1
    both = replace(ir, statements=list(ir.statements), lens=tuple(lens))
    both.statements[pos] = replace(stmt, len_slots=((slot, runs + 1),))
    table_only = replace(ir, statements=list(ir.statements),
                         lens=tuple(lens))
    for mutated in (both, table_only):
        report = verify_effect_ir(mutated, instrs, machine)
        assert "codegen-scalar-slot-mismatch" in codes_of(report), \
            report.render()


@pytest.mark.parametrize("old,new", [
    ("double acc = 0.0;", "double acc = -0.0;"),
    ("case 8: SPMV_RUN(8);", "case 8: SPMV_RUN(7);"),
    ("acc += w[k] * x[c[k]];", "acc += x[c[k]] * w[k];"),
])
def test_seeded_grouped_helper_drift_is_caught(old, new):
    ir, instrs, machine = unit_for(1)
    head = ir.source.split("long loop_run(", 1)[0]
    assert old in head
    mutated = replace(ir, statements=list(ir.statements),
                      source=ir.source.replace(old, new, 1))
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-kernel-body-drift" in codes_of(report), report.render()


def test_seeded_b1_csr_spmv_is_caught():
    """A one-lane unit must call the row kernel: the lane-minor CSR walk
    a wider unit emits is rejected there."""
    ir, instrs, machine, pos, stmt = grouped_spmv()
    wide, _instrs, _machine = unit_for(2)
    csr = next(s for s in wide.statements
               if s.op == "spmv" and s.instr_index == stmt.instr_index)
    mutated = clone(ir)
    mutated.statements[pos] = replace(
        stmt, text=csr.text.replace("if (m0[j]) ", ""))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-kernel-body-drift"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


# ---------------------------------------------------------------------------
# one-lane DOT groups: one loop per group, one accumulator per DOT


def dot_unit(body):
    """A one-lane unit over vectors ``a``/``b`` (length 6) and ``c``
    (length 4): ``(ir, body, machine)``, statically emitted."""
    machine = BatchMachine(4, {}, 1)
    rng = np.random.default_rng(3)
    for name, length in (("a", 6), ("b", 6), ("c", 4)):
        machine.vb[name] = rng.standard_normal((length, 1))
    for name in ("s0", "s1", "s2", "s3"):
        machine.scalar_buffer(name)
    builder = _LoopBuilder(BatchExecutor(machine, jit=False, verify=False))
    builder.emit_body_ir(body)
    return builder.effect_ir(), body, machine


_DOT_PTR = re.compile(r"^\s*(?:const )?double \*(?: restrict )?([abo]) = "
                      r"(\S+);$", re.M)


def merged(ir, positions):
    """``ir`` with the DOTs at walk ``positions`` rewritten into one
    group, as a builder that grouped them would emit it: each member's
    pointers from its own loop, the loop at the last member, reading
    that member's length slot."""
    mutated = clone(ir)
    operands = []
    for k, pos in enumerate(positions):
        stmt = ir.statements[pos]
        ptrs = dict(_DOT_PTR.findall(stmt.text))
        operands.append((ptrs["a"], ptrs["b"], ptrs["o"]))
        (reg, _tok), = stmt.sreg_writes
        mutated.statements[pos] = replace(
            stmt, group=tuple(positions), sreg_writes=((reg, f"o{k}"),),
            text="", len_slots=())
    last = ir.statements[positions[-1]]
    (slot, _n), = last.len_slots
    mutated.statements[positions[-1]] = replace(
        mutated.statements[positions[-1]], len_slots=last.len_slots,
        text=dot_group_source(f"L[{slot}]", operands))
    return mutated


def dot(dst, a, b):
    return VectorOp(VectorOpKind.DOT, dst, (a, b))


def test_merged_groups_in_the_real_units():
    """PDQP's termination check runs as two three-DOT loops; every
    one-lane group is a stretch of consecutive DOTs; wider units record
    no group."""
    ir, instrs, machine = unit_for(1, "pdqp")
    groups = {s.group for s in ir.statements if s.op == "dot"}
    assert sorted(len(g) for g in groups) == [3, 3]
    assert not verify_effect_ir(ir, instrs, machine).errors
    for algorithm, index in (("pdqp", 0), ("admm", 0), ("admm", 1)):
        ir, _instrs, _machine = unit_for(1, algorithm, index)
        for stmt in ir.statements:
            if stmt.group:
                assert stmt.group == tuple(range(stmt.group[0],
                                                 stmt.group[-1] + 1))
    for algorithm in ("admm", "pdqp"):
        wide, _instrs, _machine = unit_for(2, algorithm)
        assert all(not s.group for s in wide.statements)


def test_merged_groups_refuse_illegal_members():
    """The builder keeps DOTs of two lengths, and two DOTs with any
    statement between them, in loops of their own."""
    ir, _body, _machine = dot_unit([
        dot("s0", "a", "a"), dot("s1", "c", "c"), dot("s2", "c", "c"),
        VectorOp(VectorOpKind.AXPBY, "a", ("a", "b"), alpha=1.0,
                 beta=1.0),
        dot("s2", "b", "b"), dot("s3", "a", "b")])
    assert [s.group for s in ir.statements] == [(), (1, 2), (1, 2), (),
                                                (4, 5), (4, 5)]


def test_seeded_merged_member_of_another_length_is_caught():
    ir, body, machine = dot_unit([dot("s0", "a", "a"),
                                  dot("s1", "c", "c")])
    assert not verify_effect_ir(ir, body, machine).errors
    report = verify_effect_ir(merged(ir, (0, 1)), body, machine)
    assert codes_of(report) == {"codegen-shape-mismatch"}, report.render()


@pytest.mark.parametrize("between", [
    VectorOp(VectorOpKind.AXPBY, "a", ("a", "b"), alpha=1.0, beta=1.0),
    ScalarOp(ScalarOpKind.ADD, "s2", "s0", "s3"),
], ids=["operand-writer", "register-reader"])
def test_seeded_merged_group_past_a_statement_is_caught(between):
    """``s0 = a.a`` cannot run in a loop after ``a = a + b``, nor after
    a statement that reads ``s0``: a group holds consecutive DOTs."""
    ir, body, machine = dot_unit([dot("s0", "a", "a"), between,
                                  dot("s1", "b", "b")])
    assert [s.group for s in ir.statements] == [(), (), ()]
    report = verify_effect_ir(merged(ir, (0, 2)), body, machine)
    assert codes_of(report) == {"codegen-order-mismatch"}, report.render()
    assert "stmt 2 (dot)" in report.errors[0].location.path


def test_seeded_merged_group_across_a_control_is_caught():
    ir, body, machine = dot_unit([dot("s0", "a", "a"),
                                  Control("s2", "s3"),
                                  dot("s1", "b", "b")])
    assert [s.group for s in ir.statements] == [(), (), ()]
    report = verify_effect_ir(merged(ir, (0, 2)), body, machine)
    assert codes_of(report) == {"codegen-order-mismatch"}, report.render()


def real_group():
    """PDQP's one-lane unit, the position of its first three-DOT
    group's last member, and that statement."""
    ir, instrs, machine = unit_for(1, "pdqp")
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == "dot" and len(s.group) == 3
                     and s.instr_index == s.group[-1])
    return ir, instrs, machine, pos, stmt


def test_seeded_merged_missing_accumulator_is_caught():
    ir, instrs, machine, pos, stmt = real_group()
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt, text="".join(
        line for line in stmt.text.splitlines(True) if "acc1" not in line))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-expression-mismatch"]
    assert found, report.render()
    assert "acc1" in found[0].message
    assert str(stmt.instr_index) in found[0].location.path


@pytest.mark.parametrize("start", ["-0.0", "1e-300", "0"])
def test_seeded_merged_accumulator_start_is_caught(start):
    ir, instrs, machine, pos, stmt = real_group()
    mutated = clone(ir)
    mutated.statements[pos] = replace(stmt, text=stmt.text.replace(
        "double acc1 = 0.0;", f"double acc1 = {start};"))
    report = verify_effect_ir(mutated, instrs, machine)
    assert codes_of(report) == {"codegen-kernel-body-drift"}, \
        report.render()


def test_seeded_merged_member_emitting_its_own_loop_is_caught():
    """An earlier member runs in its group's loop only."""
    ir, instrs, machine, pos, stmt = real_group()
    first = ir.statements[stmt.group[0]]
    mutated = clone(ir)
    mutated.statements[stmt.group[0]] = replace(first, text=stmt.text)
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-kernel-body-drift" in codes_of(report), report.render()


_NAMES_UNDER_PATCHED_IR = """
import importlib, json, sys
from repro.hw import cjit, compiled, effect_ir
source = sys.stdin.read()
flags = list(cjit._COMPILE_ARGS[0])

def names():
    return [cjit.module_name(cjit._ENGINE_CDEF, cjit._ENGINE_SOURCE,
                             "engine", flags, ["m"]),
            cjit.module_name(compiled._LOOP_CDEF, source, "loop", flags,
                             ["m"])]

before = names()
effect_ir.EFFECT_IR_VERSION = "patched"
importlib.reload(cjit)
print(json.dumps([before, names()]))
"""


def test_ir_version_names_no_module():
    """Another effect-IR version leaves the engine library's and a B=2
    unit's module names unchanged (the key is the kernel layer and the
    source), while pass 4 still rejects an IR of that version."""
    import json
    import os
    import subprocess
    import sys
    wide, instrs, machine = unit_for(2)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NAMES_UNDER_PATCHED_IR],
                         input=wide.source, capture_output=True, text=True,
                         env=env, check=True).stdout
    before, after = json.loads(out)
    assert before == after
    assert before[0].startswith("_repro_engine_")
    assert before[1].startswith("_repro_loop_")
    report = verify_effect_ir(replace(wide, version="patched"), instrs,
                              machine)
    found = [d for d in report.errors if d.code == "codegen-shape-mismatch"]
    assert found and "version" in found[0].message, report.render()


#: sha256 prefixes of the sources of this suite entry's B >= 2 units, as
#: emitted before the one-lane row kernel existed: the wider units keep
#: the lane-minor CSR walk byte for byte.
WIDE_SOURCES = {
    ("admm", 2): ["803702d45d5a6833", "6d609385e518dd8f"],
    ("admm", 32): ["ac0b6e537df25798", "54ee06bfe7b327a5"],
    ("pdqp", 2): ["b19b8619ee6a7e3a"],
    ("pdqp", 32): ["54161155deaa6541"],
}


@pytest.mark.parametrize("algorithm,width", sorted(WIDE_SOURCES))
def test_wide_units_keep_the_csr_source(algorithm, width):
    """A B >= 2 unit's source, and so its module's source hash, is the
    CSR form's; only one-lane units carry the row kernel."""
    problem = suite_entry().problem
    matrices = {"P": problem.P, "A": problem.A, "At": problem.A.transpose()}
    units, _skipped = cg.lift_units(artifact(algorithm).compiled, matrices,
                                    (width,))
    digests = [hashlib.sha256(ir.source.encode()).hexdigest()[:16]
               for ir, _instrs, _machine in units]
    assert digests == WIDE_SOURCES[algorithm, width]
    for ir, _instrs, _machine in units:
        assert "spmv_grouped" not in ir.source
        assert all(len(s.index_arrays) == 2 for s in ir.statements
                   if s.op == "spmv")


@lru_cache(maxsize=None)
def unit_at(width, algorithm="admm"):
    """The outer loop's unit lifted at ``width`` lanes."""
    problem = suite_entry().problem
    matrices = {"P": problem.P, "A": problem.A, "At": problem.A.transpose()}
    units, _skipped = cg.lift_units(artifact(algorithm).compiled, matrices,
                                    (width,))
    return units[0]


@pytest.mark.parametrize("head", ["const long bt = 4;",
                                  "const long bt = L[0];"])
def test_lane_width_head_mismatch_is_caught(head):
    """A B=8 unit is emitted at its width: a head with another literal
    or a runtime lane count is rejected."""
    ir, instrs, machine = unit_at(8)
    assert "const long bt = 8;" in ir.source
    assert not verify_effect_ir(ir, instrs, machine).errors
    mutated = replace(ir, statements=list(ir.statements),
                      source=ir.source.replace("const long bt = 8;", head,
                                               1))
    report = verify_effect_ir(mutated, instrs, machine)
    assert "codegen-lane-mask-missing" in codes_of(report), report.render()


@pytest.mark.parametrize("op", ["dot", "spmv", "scalar:div", "axpby"])
def test_lane_width_redeclared_in_block_is_caught(op):
    """Every lane loop runs over the head's one ``bt``: a statement
    that declares its own lane count is rejected."""
    ir, instrs, machine = unit_at(8)
    pos, stmt = next((i, s) for i, s in enumerate(ir.statements)
                     if s.op == op)
    assert "const long bt" not in stmt.text
    mutated = clone(ir)
    mutated.statements[pos] = replace(
        stmt, text=stmt.text.replace("    {\n",
                                     "    {\n        const long bt = L[0];\n",
                                     1))
    report = verify_effect_ir(mutated, instrs, machine)
    found = [d for d in report.errors
             if d.code == "codegen-lane-mask-missing"]
    assert found, report.render()
    assert str(stmt.instr_index) in found[0].location.path


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
