"""Differential tests: compiled backend vs the interpreter oracle.

The compiled executor's contract is *bit-identical machine state and
identical cycle accounting* on every error-free run. A solo program
runs on a one-lane :class:`~repro.hw.batched.BatchMachine`, so these
tests compare the interpreter's state with that machine's lane 0. They
drive randomly generated ISA programs, real compiled solver programs,
and random SpMV schedules through both backends and compare
exhaustively. Error runs only guarantee the same exception type (a
lowered block that faults mid-loop after its first iteration has
already deferred its charges — documented in :mod:`repro.hw.compiled`).
"""

import os
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.customization import (baseline_architecture, build_cvb,
                                 customize_problem, schedule,
                                 search_architecture)
from repro.encoding import encode_matrix
from repro.exceptions import ShapeError, SimulationError
from repro.hw import (Control, DataTransfer, Loop, Machine, MatrixResource,
                      Program, ScalarOp, ScalarOpKind, SpMV, VecDup,
                      VectorOp, VectorOpKind)
from repro.hw import cjit
from repro.hw.accelerator import RSQPAccelerator
from repro.hw.batched import BatchExecutor, BatchMachine, BatchMatrixResource
from repro.hw.spmv_engine import simulate_spmv
from repro.problems import FAMILIES, generate
from repro.sparse import CSRMatrix

from helpers import edge_case_problem, random_dense

N = 6
VECS = ("v0", "v1", "v2", "v3")
SCALARS = ("s0", "s1", "s2", "s3")
CVBS = ("M", "W")


def fresh_machine(seed):
    rng = np.random.default_rng(seed)
    mat = CSRMatrix.from_dense(random_dense(rng, N, N, 0.5))
    mat2 = CSRMatrix.from_dense(random_dense(rng, N, N, 0.3))
    machine = Machine(4, {
        "M": MatrixResource(name="M", matrix=mat, spmv_cycles=9,
                            cvb_depth=3),
        "W": MatrixResource(name="W", matrix=mat2, spmv_cycles=5,
                            cvb_depth=2),
    })
    for name in VECS:
        machine.vb[name] = rng.standard_normal(N)
    for k, name in enumerate(SCALARS):
        machine.set_scalar(name, float(rng.standard_normal() + k))
    machine.hbm["v0"] = rng.standard_normal(N)
    return machine


def one_lane(machine):
    """A one-lane BatchMachine holding ``machine``'s state as lane 0."""
    lane = BatchMachine(machine.c, {
        name: BatchMatrixResource(name, resource.matrix,
                                  resource.spmv_cycles, resource.cvb_depth, 1)
        for name, resource in machine.matrices.items()}, 1)
    for name, resource in machine.matrices.items():
        lane.matrices[name].update_values(resource.matrix.data)
    for space in ("hbm", "vb", "cvb"):
        getattr(lane, space).update(
            (name, vec[:, None].copy())
            for name, vec in getattr(machine, space).items())
    for name, value in machine.scalars.items():
        lane.set_scalar(name, value)
    lane.injectors = machine.injectors
    return lane


def build_instruction(draw_op, p1, p2, p3):
    """Map small hypothesis-drawn integers onto one ISA instruction."""
    vec = VECS[p1 % len(VECS)]
    vec2 = VECS[p2 % len(VECS)]
    scal = SCALARS[p1 % len(SCALARS)]
    scal2 = SCALARS[p2 % len(SCALARS)]
    alpha = (scal, 1.0, -1.0, 0.5)[p3 % 4]
    if draw_op == 0:
        kind = (ScalarOpKind.ADD, ScalarOpKind.SUB, ScalarOpKind.MUL,
                ScalarOpKind.MAX)[p3 % 4]
        return ScalarOp(kind, SCALARS[p3 % len(SCALARS)], scal, scal2)
    if draw_op == 1:
        return ScalarOp(ScalarOpKind.MOV, scal2, scal)
    if draw_op == 2:
        return VectorOp(VectorOpKind.AXPBY, vec2, (vec, vec2),
                        alpha=alpha, beta=(1.0, -1.0, scal2, 2.0)[p2 % 4])
    if draw_op == 3:
        return VectorOp(VectorOpKind.SCALE_ADD, vec, (vec, vec2),
                        alpha=alpha)
    if draw_op == 4:
        return VectorOp(VectorOpKind.EWMUL, vec2, (vec, vec2))
    if draw_op == 5:
        return VectorOp(VectorOpKind.COPY, vec2, (vec,))
    if draw_op == 6:
        return VectorOp(VectorOpKind.DOT, scal, (vec, vec2))
    if draw_op == 7:
        return VecDup(vec, CVBS[p3 % len(CVBS)])
    if draw_op == 8:
        # SpMV from a CVB bank; faults (bank not yet written) must
        # raise the same error type in both backends.
        bank = CVBS[p3 % len(CVBS)]
        return SpMV(bank, bank, vec)
    if draw_op == 9:
        return DataTransfer("load", "v0")
    return DataTransfer("store", vec)


def run_both(program, seed, jit=False):
    """Execute on the interpreter and on a one-lane machine holding the
    same state; return both machines."""
    mi = fresh_machine(seed)
    mc = one_lane(fresh_machine(seed))
    executor = BatchExecutor(mc, jit=jit)
    err_i = err_c = None
    try:
        mi.run(program)
    except Exception as exc:  # noqa: BLE001 - compared by type below
        err_i = exc
    try:
        executor.run(program)
        # second run exercises the fused (non-bind) path
        if err_i is None:
            mi.run(program)
            executor.run(program)
    except Exception as exc:  # noqa: BLE001
        err_c = exc
    assert type(err_i) is type(err_c), (err_i, err_c)
    return mi, mc, err_i


def machine_state(machine):
    """Every buffer and register as ``(shape, bytes)``; a one-lane
    machine's lane 0, so it compares with the interpreter's state."""
    lane = isinstance(machine, BatchMachine)
    state = {}
    for space in ("vb", "cvb", "hbm"):
        for name, buf in getattr(machine, space).items():
            if lane:
                assert buf.shape[1:] == (1,), (space, name)
                buf = buf[:, 0]
            state[space, name] = (buf.shape, buf.tobytes())
    for name, value in machine.scalars.items():
        if lane:
            assert value.shape == (1,), name
            value = value[0]
        state["scalars", name] = np.float64(value).tobytes()
    return state


def assert_states_equal(mi, mc):
    # tobytes() compares true bit patterns: NaN payloads and signed
    # zeros included, which array_equal would mis-handle.
    si, sc = machine_state(mi), machine_state(mc)
    assert si.keys() == sc.keys()
    for key in si:
        assert si[key] == sc[key], key
    si, sc = mi.stats, mc.stats
    assert si.total_cycles == sc.total_cycles
    assert si.by_class == sc.by_class
    assert si.instructions_executed == sc.instructions_executed
    assert si.loop_iterations == sc.loop_iterations


class TestRandomPrograms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.lists(st.tuples(st.integers(0, 10), st.integers(0, 7),
                              st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=14),
           st.booleans())
    def test_random_program_differential(self, seed, specs, with_loop):
        instrs = [build_instruction(*spec) for spec in specs]
        if with_loop:
            split = len(instrs) // 2
            body = instrs[split:] + [Control("s0", "s1")]
            program = Program(instrs[:split] + [Loop(body, max_iter=3,
                                                     name="l")])
        else:
            program = Program(instrs)
        mi, mc, err = run_both(program, seed, jit=False)
        if err is None:
            assert_states_equal(mi, mc)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.lists(st.tuples(st.integers(0, 10), st.integers(0, 7),
                              st.integers(0, 7), st.integers(0, 7)),
                    min_size=2, max_size=10))
    def test_random_program_differential_jit(self, seed, specs):
        """Same property with whole-loop fusion enabled (fixed-size
        pool so the generated C sources stay few and cache-hot)."""
        instrs = [build_instruction(*spec) for spec in specs]
        program = Program([Loop(instrs + [Control("s0", "s1")],
                                max_iter=3, name="l")])
        mi, mc, err = run_both(program, seed, jit=True)
        if err is None:
            assert_states_equal(mi, mc)


class TestFusedPatterns:
    def test_pcg_like_body_bitwise(self):
        """A PCG-shaped body: after its first run the loop fuses into
        one C function; results and accounting must still match the
        oracle."""
        body = [
            VecDup("v0", "M"),
            SpMV("M", "M", "v1"),
            VectorOp(VectorOpKind.EWMUL, "v2", ("v1", "v0")),
            VectorOp(VectorOpKind.AXPBY, "v1", ("v1", "v2"),
                     alpha=1.0, beta="s2"),
            VectorOp(VectorOpKind.DOT, "s0", ("v1", "v1")),
            VectorOp(VectorOpKind.SCALE_ADD, "v0", ("v0", "v1"),
                     alpha="s0"),
            VectorOp(VectorOpKind.DOT, "s3", ("v0", "v2")),
            Control("s3", "s1"),
        ]
        program = Program([Loop(body, max_iter=5, name="pcg")])
        mi, mc, err = run_both(program, seed=7, jit=True)
        assert err is None
        assert_states_equal(mi, mc)

    def test_dot_feeding_fused_consumer(self):
        """A DOT result consumed by a later op in the same straight-line
        block (run as closures, outside any loop) must read the fresh
        register value, not the stale one."""
        instrs = [
            VectorOp(VectorOpKind.DOT, "s0", ("v0", "v1")),
            VectorOp(VectorOpKind.SCALE_ADD, "v2", ("v2", "v1"),
                     alpha="s0"),
            VectorOp(VectorOpKind.DOT, "s0", ("v2", "v2")),
        ]
        program = Program(list(instrs))
        mi, mc, err = run_both(program, seed=11, jit=True)
        assert err is None
        assert_states_equal(mi, mc)

    def test_jit_off_matches_interpreter(self):
        program = Program([
            VecDup("v1", "W"),
            SpMV("W", "W", "v3"),
            VectorOp(VectorOpKind.AXPBY, "v3", ("v3", "v1"),
                     alpha=0.25, beta=-1.0),
        ])
        mi, mc, err = run_both(program, seed=3, jit=False)
        assert err is None
        assert_states_equal(mi, mc)


class TestSolveDifferential:
    @pytest.mark.parametrize("family,size", [("eqqp", 16), ("lasso", 10),
                                             ("control", 4)])
    def test_full_solve_bitwise(self, family, size):
        problem = generate(family, size, seed=0)
        cust = customize_problem(problem, 8)
        res = {}
        for backend in ("interpret", "compiled"):
            acc = RSQPAccelerator(problem, customization=cust,
                                  backend=backend)
            res[backend] = (acc.run(), acc.machine.stats)
        ri, si = res["interpret"]
        rc, sc = res["compiled"]
        assert np.array_equal(ri.x, rc.x)
        assert np.array_equal(ri.y, rc.y)
        assert np.array_equal(ri.z, rc.z)
        assert ri.total_cycles == rc.total_cycles
        assert si.by_class == sc.by_class
        assert si.instructions_executed == sc.instructions_executed
        assert si.loop_iterations == sc.loop_iterations

    @pytest.mark.parametrize("family,size", [("eqqp", 16), ("lasso", 10),
                                             ("control", 4)])
    def test_full_pdqp_solve_bitwise(self, family, size):
        from repro.hw.pdqp import PDQPAccelerator
        problem = generate(family, size, seed=0)
        cust = customize_problem(problem, 8)
        res = {}
        for backend in ("interpret", "compiled"):
            acc = PDQPAccelerator(problem, customization=cust,
                                  backend=backend)
            res[backend] = (acc.run(), acc.machine.stats)
        ri, si = res["interpret"]
        rc, sc = res["compiled"]
        assert ri.algorithm == rc.algorithm == "pdqp"
        assert np.array_equal(ri.x, rc.x)
        assert np.array_equal(ri.y, rc.y)
        assert np.array_equal(ri.z, rc.z)
        assert ri.total_cycles == rc.total_cycles
        assert si.by_class == sc.by_class
        assert si.instructions_executed == sc.instructions_executed
        assert si.loop_iterations == sc.loop_iterations


class TestBatchDifferential:
    """Batched lockstep execution vs per-request solo solves.

    The batch contract is the strongest one in the repo: every lane of
    a B-wide run must be *bitwise* identical — x, y, z, convergence
    flag, iteration counts and effective per-instance cycles — to the
    solo accelerator run on that lane's problem alone, for any B.
    """

    def _lane_problems(self, family, size, batch):
        template = generate(family, size, seed=0)
        from repro.problems import perturb_numeric
        return [template] + [perturb_numeric(template, seed=s)
                             for s in range(1, batch)]

    def _assert_lanes_match_solo(self, probs, cust, settings, algorithm,
                                 solo_cls):
        from repro.batch import BatchAccelerator
        solos = [solo_cls(p, customization=cust, settings=settings,
                          backend="compiled") for p in probs]
        solo_results = [acc.run() for acc in solos]
        batch = BatchAccelerator(probs, cust, settings,
                                 compiled=solos[0].compiled,
                                 algorithm=algorithm)
        bres = batch.run()
        assert bres.batch == len(probs)
        assert bres.lane_errors == [None] * len(probs)
        for sr, br in zip(solo_results, bres.results):
            assert sr.x.tobytes() == br.x.tobytes()
            assert sr.y.tobytes() == br.y.tobytes()
            assert sr.z.tobytes() == br.z.tobytes()
            assert sr.converged == br.converged
            assert sr.admm_iterations == br.admm_iterations
            assert sr.pcg_iterations == br.pcg_iterations
            assert sr.total_cycles == br.total_cycles
            assert sr.restarts == br.restarts
        # The virtual fleet's wall clock is one lockstep stream: it can
        # never beat the slowest lane, and per-instance cycles amortize.
        assert bres.wall_cycles >= max(r.total_cycles
                                       for r in solo_results)
        assert bres.lane_cycles == tuple(r.total_cycles
                                         for r in solo_results)
        return solos

    @pytest.mark.parametrize("batch", [1, 2, 3, 8, 32])
    def test_admm_batch_bitwise_vs_solo(self, batch):
        probs = self._lane_problems("eqqp", 16, batch)
        cust = customize_problem(probs[0], 8)
        from repro.solver import OSQPSettings
        self._assert_lanes_match_solo(probs, cust, OSQPSettings(), "admm",
                                      RSQPAccelerator)

    @pytest.mark.parametrize("family,size,batch",
                             [("lasso", 10, 8), ("control", 4, 8)])
    def test_admm_batch_bitwise_other_families(self, family, size, batch):
        probs = self._lane_problems(family, size, batch)
        cust = customize_problem(probs[0], 8)
        from repro.solver import OSQPSettings
        self._assert_lanes_match_solo(probs, cust, OSQPSettings(), "admm",
                                      RSQPAccelerator)

    @pytest.mark.parametrize("family,size,batch,omega_tolerance", [
        pytest.param("control", 4, 2, None, id="2"),
        pytest.param("control", 4, 3, None, id="3"),
        pytest.param("control", 4, 8, None, id="8"),
        # A loose tolerance makes the lanes rebalance omega 2-6 times,
        # covering the primal-weight step solo and batch share.
        pytest.param("eqqp", 16, 8, 1.5, id="eqqp16-omega"),
    ])
    def test_pdqp_batch_bitwise_vs_solo(self, family, size, batch,
                                        omega_tolerance):
        import dataclasses
        from repro.hw.pdqp import PDQPAccelerator
        from repro.solver import OSQPSettings
        from repro.solver.algorithms import get_algorithm
        probs = self._lane_problems(family, size, batch)
        cust = customize_problem(probs[0], 8)
        settings = get_algorithm("pdqp").coerce_settings(OSQPSettings())
        if omega_tolerance is not None:
            settings = dataclasses.replace(
                settings, omega_tolerance=omega_tolerance)
        solos = self._assert_lanes_match_solo(probs, cust, settings, "pdqp",
                                              PDQPAccelerator)
        if omega_tolerance is not None:
            assert any(acc.omega_updates > 0 for acc in solos)


class TestBatchRefresh:
    """A refreshed batched machine vs a freshly constructed one.

    ``BatchAccelerator.refresh`` reloads B new problems onto a machine
    that already ran — closures lowered, loops fused, step sizes
    adapted, PDQP restarts taken — and the next run must be bitwise
    the run a fresh accelerator makes on the same problems: every lane,
    every per-lane trip counter and every wall statistic.
    """

    CASES = {"admm": ("eqqp", 16), "pdqp": ("control", 4)}

    def _setup(self, algorithm, batch):
        """``(bind, before, after)``: a binder of batched machines for
        ``algorithm`` and two disjoint sets of ``batch`` problems."""
        import dataclasses
        from repro.batch import BatchAccelerator
        from repro.hw import accelerator_class
        from repro.problems import perturb_numeric
        from repro.solver import OSQPSettings
        from repro.solver.algorithms import get_algorithm
        family, size = self.CASES[algorithm]
        template = generate(family, size, seed=0)
        before = [perturb_numeric(template, seed=s)
                  for s in range(1, batch + 1)]
        after = [perturb_numeric(template, seed=s)
                 for s in range(100, batch + 100)]
        cust = customize_problem(template, 8)
        settings = get_algorithm(algorithm).coerce_settings(OSQPSettings())
        if algorithm == "pdqp":
            settings = dataclasses.replace(settings, omega_tolerance=1.5)
        compiled = accelerator_class(algorithm)(
            template, customization=cust, settings=settings).compiled

        def bind(problems, warm_starts=None):
            return BatchAccelerator(problems, cust, settings,
                                    compiled=compiled, algorithm=algorithm,
                                    warm_starts=warm_starts)
        return bind, before, after

    @staticmethod
    def _assert_same_results(rres, fres):
        assert rres.lane_errors == fres.lane_errors == [None] * rres.batch
        for rr, fr in zip(rres.results, fres.results):
            assert rr.x.tobytes() == fr.x.tobytes()
            assert rr.y.tobytes() == fr.y.tobytes()
            assert rr.z.tobytes() == fr.z.tobytes()
            assert rr.converged == fr.converged
            assert rr.admm_iterations == fr.admm_iterations
            assert rr.pcg_iterations == fr.pcg_iterations
            assert rr.total_cycles == fr.total_cycles
            assert rr.restarts == fr.restarts
        rs, fs = rres.wall_stats, fres.wall_stats
        assert rres.wall_cycles == fres.wall_cycles
        assert rs.by_class == fs.by_class
        assert rs.instructions_executed == fs.instructions_executed
        assert rs.loop_iterations == fs.loop_iterations

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("batch", [1, 2, 8, 32])
    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    def test_refreshed_run_equals_fresh(self, algorithm, batch, warm):
        bind, before, after = self._setup(algorithm, batch)
        machine = bind(before)
        first = machine.run()
        # The earlier run left adapted state behind for refresh to clear.
        assert any(lane.step_updates for lane in machine.lanes)
        if algorithm == "pdqp":
            assert any(lane.restarts for lane in machine.lanes)
        starts = [(r.x, r.y) for r in first.results] if warm else None
        machine.refresh(after, starts)
        rres = machine.run()
        fresh = bind(after, starts)
        fres = fresh.run()

        self._assert_same_results(rres, fres)
        r_lanes = machine.machine.lane_loop_iterations
        f_lanes = fresh.machine.lane_loop_iterations
        assert r_lanes.keys() == f_lanes.keys()
        for name in f_lanes:
            assert np.array_equal(r_lanes[name], f_lanes[name])
        # The first answer kept its own accounting.
        assert first.wall_stats.total_cycles == first.wall_cycles

    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    def test_refresh_loads_fresh_machine_state(self, algorithm):
        # After a run that adapted rho / omega, a refresh leaves the
        # machine itself — value blocks, download buffers, registers,
        # each lane's host state — as a fresh construction builds it.
        bind, before, after = self._setup(algorithm, 8)
        machine = bind(before)
        machine.run()
        assert any(lane.step_updates for lane in machine.lanes)
        machine.refresh(after)
        fresh = bind(after)
        refreshed, built = machine.machine, fresh.machine
        for name, resource in built.matrices.items():
            assert refreshed.matrices[name].kernel.val.tobytes() == \
                resource.kernel.val.tobytes(), name
        assert built.hbm.keys() <= refreshed.hbm.keys()
        for name, values in built.hbm.items():
            assert refreshed.hbm[name].tobytes() == values.tobytes(), name
        assert built.scalars.keys() <= refreshed.scalars.keys()
        for name, values in built.scalars.items():
            assert refreshed.scalars[name].tobytes() == \
                values.tobytes(), name
        step = ("rho", "rho_vec") if algorithm == "admm" else (
            "norm_a", "lam_p", "omega", "tau", "sigma")
        for lane, new in zip(machine.lanes, fresh.lanes):
            assert lane.restarts == lane.step_updates == 0
            for name in step:
                assert np.asarray(getattr(lane, name)).tobytes() == \
                    np.asarray(getattr(new, name)).tobytes(), name
            assert lane.scaling.d.tobytes() == new.scaling.d.tobytes()

    @pytest.mark.parametrize("bad", ["warm_starts", "deadline_ats"])
    def test_rejected_refresh_changes_nothing(self, bad):
        # A refresh whose per-lane lists do not match the width raises
        # before any lane or buffer changes: the next run is the run
        # the machine would have made without it.
        bind, before, after = self._setup("admm", 2)
        machine = bind(before)
        machine.run()
        machine.refresh(before)
        reference = bind(before).run()
        with pytest.raises(ValueError, match="per-lane"):
            machine.refresh(after, **{bad: [None]})
        self._assert_same_results(machine.run(), reference)

    def test_refresh_rejects_a_different_width(self):
        from repro.batch import BatchAccelerator
        from repro.problems import perturb_numeric
        from repro.solver import OSQPSettings
        template = generate("eqqp", 16, seed=0)
        probs = [perturb_numeric(template, seed=s) for s in range(3)]
        cust = customize_problem(template, 8)
        compiled = RSQPAccelerator(template, customization=cust).compiled
        machine = BatchAccelerator(probs[:2], cust, OSQPSettings(),
                                   compiled=compiled)
        with pytest.raises(ValueError, match="2 lanes"):
            machine.refresh(probs)

    def test_mixed_structures_raise_shape_error(self):
        # Lanes of different sparsity patterns fail with one typed
        # error, at construction and at refresh alike, before any lane
        # scales itself or binds a matrix.
        from repro.batch import BatchAccelerator
        from repro.problems import perturb_numeric
        from repro.solver import OSQPSettings
        template = generate("eqqp", 16, seed=0)
        other = generate("eqqp", 16, seed=1)
        assert (other.n, other.m) == (template.n, template.m)
        assert not np.array_equal(other.A.indices, template.A.indices)
        cust = customize_problem(template, 8)
        compiled = RSQPAccelerator(template, customization=cust).compiled
        with pytest.raises(ShapeError, match="sparsity pattern"):
            BatchAccelerator([template, other], cust, OSQPSettings(),
                             compiled=compiled)
        machine = BatchAccelerator(
            [template, perturb_numeric(template, seed=1)], cust,
            OSQPSettings(), compiled=compiled)
        with pytest.raises(ShapeError, match="sparsity pattern"):
            machine.refresh([perturb_numeric(template, seed=2), other])

    def test_lanes_sharing_index_arrays_compare_them_once(self, monkeypatch):
        # The structure check compares an index array by value only the
        # first time it sees it: 32 lanes over one problem's pattern
        # arrays cost the four comparisons of one lane, not 4 per lane.
        from repro.batch import BatchAccelerator
        from repro.problems import perturb_numeric
        from repro.qp import QProblem
        from repro.solver import OSQPSettings
        template = generate("eqqp", 40, seed=0)
        cust = customize_problem(template, 8)
        compiled = RSQPAccelerator(template, customization=cust).compiled
        machine = BatchAccelerator(
            [perturb_numeric(template, seed=s) for s in range(32)], cust,
            OSQPSettings(), compiled=compiled)
        base = perturb_numeric(template, seed=99)
        lanes = [QProblem(P=base.P, q=base.q + 0.01 * k, A=base.A,
                          l=base.l, u=base.u) for k in range(32)]
        calls = []
        array_equal = np.array_equal

        def counted(*args, **kwargs):
            calls.append(args)
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counted)
        machine.refresh(lanes)
        assert len(calls) <= 4


def _parity_problem(family):
    """A generator family, or the hand-built edge case as a seventh."""
    if family == "edge":
        return edge_case_problem()
    size = {"control": 2, "eqqp": 16}.get(family, 6)
    return generate(family, size, seed=3)


PARITY_FAMILIES = [*FAMILIES, "edge"]


def _assert_same_scaling(acc, ref):
    """Scaling data and the scaled problem, bit for bit."""
    assert acc.scaling.d.tobytes() == ref.scaling.d.tobytes()
    assert acc.scaling.e.tobytes() == ref.scaling.e.tobytes()
    assert acc.scaling.c == ref.scaling.c
    for name in ("q", "l", "u"):
        assert getattr(acc.work, name).tobytes() == \
            getattr(ref.work, name).tobytes()
    for name in ("P", "A"):
        assert getattr(acc.work, name).data.tobytes() == \
            getattr(ref.work, name).data.tobytes()


class TestHostSetupParity:
    """The cards' host setup is the reference solvers' host setup.

    Both call the same host functions (:mod:`repro.solver.host`,
    :func:`repro.qp.ruiz_equilibrate`), so the scaling, the scaled
    problem and every step-size datum the download carries agree bit
    for bit with what the reference solver derives.
    """

    @pytest.mark.parametrize("family", PARITY_FAMILIES)
    def test_admm_host_setup_matches_reference(self, family):
        from repro.customization import baseline_customization
        from repro.solver import OSQPSettings, OSQPSolver
        problem = _parity_problem(family)
        settings = OSQPSettings()
        ref = OSQPSolver(problem, settings)
        acc = RSQPAccelerator(problem, baseline_customization(problem, 8),
                              settings)
        _assert_same_scaling(acc, ref)
        assert acc.rho == ref.rho
        assert acc.rho_vec.tobytes() == ref.rho_vec.tobytes()
        hbm = acc.machine.hbm
        assert hbm["rho"].tobytes() == ref.rho_vec.tobytes()
        minv = ref.backend.preconditioner.apply(np.ones(problem.n))
        assert hbm["minv"].tobytes() == minv.tobytes()

    @pytest.mark.parametrize("family", PARITY_FAMILIES)
    def test_pdqp_host_setup_matches_reference(self, family):
        from repro.customization import baseline_customization
        from repro.hw.pdqp import PDQPAccelerator
        from repro.solver import PDQPSettings, PDQPSolver
        problem = _parity_problem(family)
        settings = PDQPSettings()
        ref = PDQPSolver(problem, settings)
        acc = PDQPAccelerator(problem, baseline_customization(problem, 8),
                              settings)
        _assert_same_scaling(acc, ref)
        for name in ("norm_a", "lam_p", "omega", "tau", "sigma"):
            assert getattr(acc, name) == getattr(ref, name), name
        scalars = acc.machine.scalars
        assert scalars["neg_tau"] == -ref.tau
        assert scalars["sigma"] == ref.sigma

    @pytest.mark.parametrize("case", ["family", "zero_a", "zero_p", "m0",
                                      "edge"])
    def test_operator_norms_match_plain_loop(self, case):
        # The one-call power iteration (and its numpy twin) is the plain
        # loop in the kernels' order — every matvec row and every norm
        # a sequential `acc += a * b` from 0.0 — bit for bit, including
        # the early exit once the iterate vanishes and the skipped A
        # pass of a problem without constraints.
        import math
        from repro.qp import QProblem, RuizPlan
        from repro.solver.host import (DIV_GUARD, estimate_operator_norms,
                                       numpy_power)
        from repro.sparse import eye
        problem = (edge_case_problem() if case == "edge"
                   else generate("lasso", 6, seed=3))
        if case == "zero_a":
            problem = QProblem(P=problem.P, q=problem.q,
                               A=CSRMatrix.zeros(problem.A.shape),
                               l=problem.l, u=problem.u)
        elif case == "zero_p":
            problem = QProblem(P=CSRMatrix.zeros(problem.P.shape),
                               q=problem.q, A=problem.A, l=problem.l,
                               u=problem.u)
        elif case == "m0":
            problem = QProblem(P=eye(3), q=np.ones(3),
                               A=CSRMatrix.zeros((0, 3)), l=np.zeros(0),
                               u=np.zeros(0))
        p_mat, a_mat = problem.P, problem.A
        at_mat = a_mat.transpose()

        def matvec(mat, v):
            out = []
            for r in range(mat.shape[0]):
                acc = 0.0
                for k in range(mat.indptr[r], mat.indptr[r + 1]):
                    acc += float(mat.data[k]) * v[mat.indices[k]]
                out.append(acc)
            return out

        def norm(v):
            acc = 0.0
            for x in v:
                acc += x * x
            return math.sqrt(acc)

        def plain(apply, start, iterations=50):
            v = start.tolist()
            for _ in range(iterations):
                nv = norm(v)
                if nv <= DIV_GUARD:
                    break
                v = apply([x / nv for x in v])
            return norm(v)

        n, m = p_mat.shape[0], a_mat.shape[0]
        rng = np.random.default_rng(0)
        norm_a = 0.0
        if m > 0:
            norm_a = math.sqrt(plain(
                lambda v: matvec(at_mat, matvec(a_mat, v)),
                rng.standard_normal(n)))
        lam_p = plain(lambda v: matvec(p_mat, v), rng.standard_normal(n))
        plan = RuizPlan.for_problem(problem)
        vals = np.concatenate([p_mat.data, a_mat.data])[:, None]
        at = plan.at_values(vals[plan.nnz_p:])
        for got in (estimate_operator_norms(plan, vals, at),
                    numpy_power(plan, vals, at, 50)):
            assert repr((float(got[0][0]), float(got[1][0]))) == \
                repr((norm_a, lam_p))
        if case in ("zero_a", "m0"):
            assert norm_a == 0.0
        if case == "zero_p":
            assert lam_p == 0.0

    @pytest.mark.parametrize("rho", [0.1, 1e7], ids=["default", "clipped"])
    def test_refresh_carrying_rho_equals_fresh_bind(self, rho):
        # Carrying a never-adapted rho through a refresh must write the
        # rho vector a fresh bind writes: clipped to RHO_MAX, not 1e7.
        from repro.problems import perturb_numeric
        from repro.solver import OSQPSettings
        problem = generate("control", 2, seed=0)
        nearby = perturb_numeric(problem, seed=1)
        settings = OSQPSettings(rho=rho)
        cust = customize_problem(problem, 8)
        bound = RSQPAccelerator(problem, cust, settings)
        bound.refresh_numeric(nearby, carry_rho=True)
        fresh = RSQPAccelerator(nearby, cust, settings)
        for name in ("rho", "rho_inv", "minv"):
            assert bound.machine.hbm[name].tobytes() == \
                fresh.machine.hbm[name].tobytes(), name

    @pytest.mark.parametrize("backend", ["compiled", "interpret"])
    def test_carried_refresh_keeps_adapted_omega(self, backend,
                                                 monkeypatch):
        # A carried refresh keeps the omega the last run adapted and
        # re-derives tau / sigma from it against the new problem's
        # operator norms, with one power iteration; the registers
        # carry those steps.
        import dataclasses
        import repro.hw.pdqp as pdqp
        from repro.hw.pdqp import PDQPAccelerator
        from repro.problems import perturb_numeric
        from repro.solver import PDQPSettings
        from repro.solver.host import pdqp_step_sizes
        problem = generate("eqqp", 16, seed=0)
        nearby = perturb_numeric(problem, seed=1)
        cust = customize_problem(problem, 8)
        settings = dataclasses.replace(PDQPSettings(), omega_tolerance=1.5)
        cold = PDQPAccelerator(nearby, cust, settings, backend=backend)
        acc = PDQPAccelerator(problem, cust, settings, backend=backend)
        acc.run()
        assert acc.omega_updates > 0
        omega = acc.omega
        assert omega != cold.omega
        calls = []
        initial_steps = pdqp.pdqp_initial_steps

        def counted(*args):
            calls.append(args)
            return initial_steps(*args)

        monkeypatch.setattr(pdqp, "pdqp_initial_steps", counted)
        acc.refresh_numeric(nearby, carry_omega=True)
        assert len(calls) == 1
        assert acc.omega == omega
        assert (acc.norm_a, acc.lam_p) == (cold.norm_a, cold.lam_p)
        tau, sigma = pdqp_step_sizes(omega, cold.norm_a, cold.lam_p,
                                     settings.tau_scale)
        assert (acc.tau, acc.sigma) == (tau, sigma)
        scalars = acc.machine.scalars
        for name, want in (("neg_tau", -tau), ("sigma", sigma),
                           ("sigma_inv", 1.0 / sigma),
                           ("neg_sigma", -sigma)):
            assert repr(float(np.ravel(scalars[name])[0])) == \
                repr(want), name

    def test_carried_refresh_builds_rho_vector_once(self, monkeypatch):
        # A carried refresh derives its rho vector from the carried
        # step alone, not also from the cold-start rho it replaces.
        import repro.hw.accelerator as accelerator
        import repro.solver.host as host
        from repro.problems import perturb_numeric
        problem = generate("control", 2, seed=0)
        bound = RSQPAccelerator(problem, customize_problem(problem, 8))
        bound.rho = 0.37
        calls = []

        def counted(l, u, rho, build=host.rho_vector):
            calls.append(rho)
            return build(l, u, rho)

        monkeypatch.setattr(accelerator, "rho_vector", counted)
        monkeypatch.setattr(host, "rho_vector", counted)
        bound.refresh_numeric(perturb_numeric(problem, seed=1),
                              carry_rho=True)
        assert calls == [0.37]


class TestSpMVEngineDifferential:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([4, 8, 16]),
           st.booleans())
    def test_random_schedule_bitwise(self, seed, c, searched):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 24))
        n = int(rng.integers(2, 24))
        mat = CSRMatrix.from_dense(
            random_dense(rng, m, n, float(rng.uniform(0.05, 0.7))))
        enc = encode_matrix(mat, c)
        arch = (search_architecture([enc], c).architecture if searched
                else baseline_architecture(c))
        sched = schedule(enc, arch)
        layout = build_cvb(sched)
        x = rng.standard_normal(n)
        yi, ti = simulate_spmv(sched, layout, x, backend="interpret")
        yc, tc = simulate_spmv(sched, layout, x, backend="compiled")
        assert np.array_equal(yi, yc)
        assert ti.input_cycles == tc.input_cycles
        assert ti.outputs_per_cycle == tc.outputs_per_cycle
        assert ti.accumulate_events == tc.accumulate_events
        assert ti.bank_reads == tc.bank_reads
        assert ti.alignment_rows == tc.alignment_rows
        np.testing.assert_allclose(yc, mat.matvec(x), atol=1e-10)

    def test_kernel_cached_on_schedule(self):
        rng = np.random.default_rng(0)
        mat = CSRMatrix.from_dense(random_dense(rng, 8, 8, 0.4))
        enc = encode_matrix(mat, 4)
        sched = schedule(enc, baseline_architecture(4))
        layout = build_cvb(sched)
        simulate_spmv(sched, layout, rng.standard_normal(8))
        kernels = sched._engine_kernels
        assert len(kernels) == 1
        simulate_spmv(sched, layout, rng.standard_normal(8))
        assert sched._engine_kernels is kernels and len(kernels) == 1

    def test_corrupt_layout_detected_compiled(self, rng):
        mat = CSRMatrix.from_dense(random_dense(rng, 10, 8, 0.5))
        enc = encode_matrix(mat, 8)
        sched = schedule(enc, baseline_architecture(8))
        layout = build_cvb(sched)
        used = np.flatnonzero(layout.location >= 0)
        if used.size >= 2 and layout.location[used[0]] != \
                layout.location[used[1]]:
            layout.location[used[0]] = layout.location[used[1]]
            with pytest.raises(SimulationError):
                simulate_spmv(sched, layout, rng.standard_normal(8),
                              backend="compiled")

    def test_backend_validated(self, rng):
        mat = CSRMatrix.from_dense(random_dense(rng, 4, 4, 0.5))
        enc = encode_matrix(mat, 4)
        sched = schedule(enc, baseline_architecture(4))
        layout = build_cvb(sched)
        with pytest.raises(ValueError, match="backend"):
            simulate_spmv(sched, layout, np.zeros(4), backend="fpga")


class TestScalarOpValidation:
    def test_binary_requires_src2(self):
        with pytest.raises(ValueError, match="binary"):
            ScalarOp(ScalarOpKind.ADD, "d", "a")

    def test_unary_forbids_src2(self):
        with pytest.raises(ValueError, match="unary"):
            ScalarOp(ScalarOpKind.SQRT, "d", "a", "b")

    def test_machine_rejects_smuggled_malformed_op(self):
        """An instance that dodges __post_init__ still fails with a
        clear SimulationError inside the machine, not a bare TypeError."""
        instr = object.__new__(ScalarOp)
        object.__setattr__(instr, "op", ScalarOpKind.ADD)
        object.__setattr__(instr, "dst", "d")
        object.__setattr__(instr, "src1", "a")
        object.__setattr__(instr, "src2", None)
        m = Machine(4, {})
        m.set_scalar("a", 1.0)
        with pytest.raises(SimulationError, match="binary"):
            m.run(Program([instr]))


class TestLoopAccounting:
    def test_loop_charges_nothing_in_both_backends(self):
        body = [ScalarOp(ScalarOpKind.MOV, "s1", "s0"),
                Control("s0", "s2")]
        program = Program([Loop(body, max_iter=4, name="l")])
        mi, mc, err = run_both(program, seed=5, jit=False)
        assert err is None
        assert_states_equal(mi, mc)
        # Each iteration charges 1 ScalarOp + 1 Control and nothing for
        # the Loop node itself (run_both executes error-free programs
        # twice, so the totals cover two runs).
        iters = mi.stats.loop_iterations["l"]
        assert iters >= 2  # at least one iteration per run
        assert mi.stats.instructions_executed == 2 * iters
        assert mi.stats.total_cycles == 2 * iters


class TestFaultHookEquivalence:
    """The fault-injection hooks must be invisible when inactive: an
    empty plan yields no injector at all, and an armed-but-silent
    injector leaves both backends bit-identical to unarmed runs."""

    def spmv_program(self):
        return Program([
            DataTransfer("load", "v0"),
            VecDup("v0", "M"),
            SpMV("M", "M", "v1"),
            VecDup("v1", "W"),
            SpMV("W", "W", "v3"),
        ])

    def test_empty_plan_produces_no_injector(self):
        from repro.faults import FaultPlan
        plan = FaultPlan()
        for request in range(4):
            for attempt in range(3):
                assert plan.injector_for(request, attempt) is None

    def test_silent_injector_is_bitwise_invisible_in_both_backends(self):
        from repro.faults import Fault, FaultInjector
        program = self.spmv_program()
        base_i, base_c, err = run_both(program, seed=9)
        assert err is None
        armed_i = fresh_machine(9)
        armed_c = one_lane(fresh_machine(9))
        # One injector per machine: op counters are per-run state.
        armed_i.injector = FaultInjector(
            [Fault(kind="mac-flip", op_index=10 ** 9)])
        armed_c.injectors = [FaultInjector(
            [Fault(kind="mac-flip", op_index=10 ** 9)])]
        executor = BatchExecutor(armed_c)
        armed_i.run(program)
        executor.run(program)
        armed_i.run(program)
        executor.run(program)
        assert not armed_i.injector.events
        assert not armed_c.injectors[0].events
        assert_states_equal(armed_i, armed_c)
        assert_states_equal(base_i, armed_i)
        assert_states_equal(base_c, armed_c)

    def test_armed_injector_fires_identically_in_both_backends(self):
        from repro.faults import Fault, FaultInjector
        program = self.spmv_program()
        faults = [Fault(kind="mac-flip", op_index=1, element=2, bit=33),
                  Fault(kind="hbm-read", op_index=0, element=1, bit=12),
                  Fault(kind="cvb-read", op_index=0, element=0, bit=7)]
        mi = fresh_machine(3)
        mc = one_lane(fresh_machine(3))
        mi.injector = FaultInjector(list(faults))
        mc.injectors = [FaultInjector(list(faults))]
        executor = BatchExecutor(mc)
        mi.run(program)
        executor.run(program)
        assert mi.injector.events == mc.injectors[0].events
        assert len(mi.injector.events) == 3
        assert_states_equal(mi, mc)


needs_jit = pytest.mark.skipif(not cjit.available(),
                               reason="no C toolchain for the fused tier")


@needs_jit
class TestFusedLoopErrors:
    """DIV/SQRT guards inside the whole-loop fused body.

    The generated-program strategies never emit DIV or SQRT, so the
    fused error returns (rc 1 / rc 2) need explicit coverage: the
    fused tier must raise the same SimulationError type the
    interpreter raises, from a loop where fusion is verifiably
    engaged.
    """

    def _drive(self, body_op, arm):
        """Run clean twice (second run engages fusion), then ``arm``
        the failure and run again; returns the error per backend."""
        program = Program([Loop(body=[body_op, Control("s2", "s3")],
                                max_iter=4, name="l")])
        errors = {}
        for mode in ("interp", "compiled"):
            machine = fresh_machine(0)
            machine.set_scalar("s0", 4.0)
            machine.set_scalar("s1", 2.0)
            machine.set_scalar("s3", -1e18)  # Control never exits
            if mode == "compiled":
                machine = one_lane(machine)
                executor = BatchExecutor(machine, jit=True)
                runner = executor.run
            else:
                runner = machine.run
            runner(program)
            runner(program)
            if mode == "compiled":
                # The second clean run must have gone through the
                # fused whole-loop body, or this test proves nothing.
                assert any(entry[1] for entry in
                           executor._loop_fused.values())
            arm(machine)
            with pytest.raises(SimulationError) as exc_info:
                runner(program)
            errors[mode] = exc_info.value
        assert type(errors["interp"]) is type(errors["compiled"])
        return errors

    def test_fused_division_by_zero(self):
        op = ScalarOp(ScalarOpKind.DIV, "s2", "s0", "s1")
        errors = self._drive(op, lambda m: m.set_scalar("s1", 0.0))
        assert "division" in str(errors["compiled"])

    def test_fused_negative_sqrt(self):
        op = ScalarOp(ScalarOpKind.SQRT, "s2", "s0")
        errors = self._drive(op, lambda m: m.set_scalar("s0", -1.0))
        assert "sqrt" in str(errors["compiled"])


class TestGroupedSpMV:
    """One-lane fused loops call the per-module row kernel
    ``spmv_grouped``, which walks each run of equal-length rows with a
    literal trip count. It only reorders row *writes*: every row sums
    in the engine kernels' order, so the compiled solo solve is the
    interpreter's bit for bit on the row shapes the kernel special-cases
    and on those it does not."""

    #: family, size -> the row-length fact of that case's matrices.
    CASES = {
        ("svm", 48): "P has empty rows; At rows reach 22",
        ("huber", 30): "P has empty rows",
        ("lasso", 60): "P has empty rows; At rows reach 29",
        ("control", 4): "P is all diagonal",
    }

    @staticmethod
    def _row_facts(problem):
        lens = {name: np.diff(mat.indptr) for name, mat in
                (("P", problem.P), ("A", problem.A),
                 ("At", problem.A.transpose()))}
        facts = []
        if (lens["P"] == 0).any():
            facts.append("P has empty rows")
        if np.array_equal(problem.P.indices,
                          np.repeat(np.arange(problem.n), lens["P"])):
            facts.append("P is all diagonal")
        if lens["At"].max() > 8:
            facts.append(f"At rows reach {lens['At'].max()}")
        return facts

    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    @pytest.mark.parametrize("family,size", sorted(CASES))
    def test_grouped_solo_solve_bitwise(self, family, size, algorithm,
                                        monkeypatch):
        from repro.hw import accelerator_class
        problem = generate(family, size, seed=0)
        for fact in self.CASES[family, size].split("; "):
            assert fact in self._row_facts(problem)
        sources = []
        compile_module = cjit.compile_module

        def spy(cdef, source, tag="k", libraries=()):
            if tag == "loop":
                sources.append(source)
            return compile_module(cdef, source, tag=tag,
                                  libraries=libraries)

        monkeypatch.setattr(cjit, "compile_module", spy)
        cust = customize_problem(problem, 8)
        res = {}
        for backend in ("interpret", "compiled"):
            acc = accelerator_class(algorithm)(
                problem, customization=cust, backend=backend)
            res[backend] = (acc.run(), acc.machine.stats)
        ri, si = res["interpret"]
        rc, sc = res["compiled"]
        for name in ("x", "y", "z"):
            assert getattr(ri, name).tobytes() == getattr(rc, name).tobytes()
        assert ri.total_cycles == rc.total_cycles
        assert si.by_class == sc.by_class
        assert si.instructions_executed == sc.instructions_executed
        assert si.loop_iterations == sc.loop_iterations
        if cjit.available():
            assert sources
            assert all("spmv_grouped(B[" in source for source in sources)

    @staticmethod
    def _special_matrix():
        """Rows of every length 0-12 plus rows whose products are -0.0,
        +-inf and NaN, against a source holding signed zeros, an
        infinity and a NaN."""
        rng = np.random.default_rng(5)
        n = 16
        x = rng.standard_normal(n)
        x[0], x[1], x[2], x[3] = 0.0, -0.0, np.inf, np.nan
        rows = [np.sort(rng.choice(np.arange(4, n), size=k,
                                   replace=False)) for k in range(13)]
        vals = [rng.standard_normal(k) for k in range(13)]
        special = [
            ([0], [-1.0]),              # -0.0 product: the row is +0.0
            ([0, 1], [-1.0, 1.0]),      # -0.0 + -0.0 from +0.0
            ([1, 4], [2.0, -0.0]),      # -0.0 and a signed-zero value
            ([2], [1.0]),               # +inf
            ([2, 4], [-1.0, 3.0]),      # -inf then a finite term
            ([2, 5], [1.0, -np.inf]),   # inf - inf: NaN
            ([3], [1.0]),               # NaN source
            ([0, 4, 5], [np.nan, 1.0, 2.0]),  # NaN value
            ([2, 4, 5, 6, 7, 8, 9, 10, 11, 12], [1.0] * 10),
        ]
        for cols, vs in special:
            rows.append(np.array(cols))
            vals.append(np.array(vs))
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        indices = np.concatenate(rows).astype(np.int64)
        data = np.concatenate(vals)
        pattern = CSRMatrix((len(rows), n), np.ones(indices.size), indices,
                            indptr, check=False)
        return pattern, data, x

    @needs_jit
    def test_grouped_spmv_special_values_bytewise(self, monkeypatch):
        from repro.sparse.kernels import CSRKernel
        pattern, data, x = self._special_matrix()
        sources = []
        compile_module = cjit.compile_module

        def spy(cdef, source, tag="k", libraries=()):
            if tag == "loop":
                sources.append(source)
            return compile_module(cdef, source, tag=tag,
                                  libraries=libraries)

        monkeypatch.setattr(cjit, "compile_module", spy)
        resource = BatchMatrixResource("M", pattern, 9, 3, 1)
        resource.update_values(data)
        machine = BatchMachine(4, {"M": resource}, 1)
        machine.vb["x"] = x[:, None].copy()
        executor = BatchExecutor(machine, jit=True)
        program = Program([Loop([VecDup("x", "M"), SpMV("M", "M", "y")],
                                max_iter=1, name="l")])
        executor.run(program)
        machine.vb["y"][:] = 7.0
        executor.run(program)
        assert any(entry[1] for entry in executor._loop_fused.values())
        assert len(sources) == 1 and "spmv_grouped(B[" in sources[0]
        expected = CSRKernel(pattern.shape, data, pattern.indices,
                             pattern.indptr).apply(x)
        assert machine.vb["y"][:, 0].tobytes() == expected.tobytes()
        zero_rows = [13, 14, 15]
        assert np.signbit(expected[zero_rows]).tolist() == [False] * 3


def _loop_sources(monkeypatch):
    """Capture every generated loop source compiled from here on."""
    sources = []
    compile_module = cjit.compile_module

    def spy(cdef, source, tag="k", libraries=()):
        if tag == "loop":
            sources.append(source)
        return compile_module(cdef, source, tag=tag, libraries=libraries)

    monkeypatch.setattr(cjit, "compile_module", spy)
    return sources


class TestMergedDots:
    """One-lane fused loops run consecutive DOTs of one length as one
    loop, each DOT with its own accumulator from ``+0.0`` summing its
    own products left to right. Only the *interleaving* of independent
    reductions changes, so every register keeps ``kernels.dot``'s
    bits."""

    #: Operand pairs of one length whose sums hit the IEEE corners.
    SPECIAL = [
        ([-0.0] * 4 + [0.0] * 4, [1.0] * 8),           # -0.0 products
        ([-1e-300] * 8, [1e-300] * 8),                 # underflow to -0.0
        ([np.inf, 1.0, -2.0, 0.5, 1.0, 1.0, 3.0, 1.0], [1.0] * 8),
        ([np.inf, -np.inf] + [1.0] * 6, [1.0] * 8),    # inf - inf: NaN
        ([np.inf] + [1.0] * 7, [0.0] + [1.0] * 7),     # inf * 0: NaN
        ([1.0, np.nan] + [2.0] * 6, [1.0] * 8),        # NaN operand
        ([5e-324, 1e-310, -3e-320, 2.2e-308, 4e-324, 1e-315, 0.0, 7e-322],
         [0.5, 3.0, 1.0, -0.5, 1.0, 2.0, -0.0, 1.0]),  # subnormals
        ([1e16, 1.0, -1e16, 1.0, 3.0, -1e-3, 2.0, 1e16],
         [1.0] * 8),                                   # order-sensitive
    ]

    @needs_jit
    def test_special_values_bytewise(self, monkeypatch):
        from repro.sparse import kernels
        sources = _loop_sources(monkeypatch)
        body = [VectorOp(VectorOpKind.DOT, f"s{k}", (f"a{k}", f"b{k}"))
                for k in range(len(self.SPECIAL))]
        program = Program([Loop(body, max_iter=1, name="l")])
        interp = Machine(4, {})
        lane = BatchMachine(4, {}, 1)
        for k, (a, b) in enumerate(self.SPECIAL):
            for name, vec in ((f"a{k}", a), (f"b{k}", b)):
                interp.vb[name] = np.array(vec, dtype=np.float64)
                lane.vb[name] = interp.vb[name][:, None].copy()
        executor = BatchExecutor(lane, jit=True)
        interp.run(program)
        executor.run(program)
        for k in range(len(self.SPECIAL)):
            lane.set_scalar(f"s{k}", 7.0)
        executor.run(program)
        assert any(entry[1] for entry in executor._loop_fused.values())
        last = len(self.SPECIAL) - 1
        assert len(sources) == 1
        assert sources[0].count("double acc0 = 0.0;") == 1
        assert f"acc{last} += a{last}[i] * b{last}[i];" in sources[0]
        for k, (a, b) in enumerate(self.SPECIAL):
            expected = np.float64(kernels.dot(np.array(a), np.array(b)))
            got = lane.scalars[f"s{k}"][0]
            assert got.tobytes() == expected.tobytes(), k
            assert got.tobytes() == np.float64(
                interp.scalars[f"s{k}"]).tobytes(), k
        assert not np.signbit(lane.scalars["s0"][0])

    @needs_jit
    @pytest.mark.parametrize("between", [
        VectorOp(VectorOpKind.AXPBY, "v0", ("v0", "v1"), alpha=1.0,
                 beta="s2"),
        VectorOp(VectorOpKind.EWMUL, "v2", ("v1", "v0")),
    ], ids=["writer", "independent"])
    def test_statement_between_keeps_two_loops(self, between,
                                               monkeypatch):
        """Any statement between two DOTs ends the group, whether it
        writes an operand (``v0 = v0 + s2 v1``) or not (PCG's
        ``v2 = v1 o v0``): two loops, and the interpreter's bits."""
        sources = _loop_sources(monkeypatch)
        body = [
            VectorOp(VectorOpKind.DOT, "s0", ("v0", "v0")),
            between,
            VectorOp(VectorOpKind.DOT, "s1", ("v1", "v1")),
            Control("s3", "s1"),
        ]
        mi, mc, err = run_both(
            Program([Loop(body, max_iter=4, name="l")]), seed=5, jit=True)
        assert err is None
        assert_states_equal(mi, mc)
        assert len(sources) == 1
        assert sources[0].count("double acc[bt];") == 2
        assert "acc0" not in sources[0]

    @needs_jit
    def test_lengths_split_groups_bitwise(self, monkeypatch):
        """A DOT of another length ends a group: three loops for
        ``a.a | c.c, c.d | a.b``, the lone DOTs in their own form,
        against the interpreter."""
        sources = _loop_sources(monkeypatch)
        rng = np.random.default_rng(2)
        body = [
            VectorOp(VectorOpKind.DOT, "s0", ("a", "a")),
            VectorOp(VectorOpKind.DOT, "s1", ("c", "c")),
            VectorOp(VectorOpKind.DOT, "s2", ("c", "d")),
            VectorOp(VectorOpKind.DOT, "s3", ("a", "b")),
            VectorOp(VectorOpKind.SCALE_ADD, "a", ("a", "b"), alpha="s1"),
        ]
        program = Program([Loop(body, max_iter=3, name="l")])
        interp = Machine(4, {})
        lane = BatchMachine(4, {}, 1)
        for name, length in (("a", 7), ("b", 7), ("c", 5), ("d", 5)):
            interp.vb[name] = rng.standard_normal(length)
            lane.vb[name] = interp.vb[name][:, None].copy()
        executor = BatchExecutor(lane, jit=True)
        for _ in range(2):
            interp.run(program)
            executor.run(program)
        assert any(entry[1] for entry in executor._loop_fused.values())
        assert_states_equal(interp, lane)
        assert len(sources) == 1
        assert sources[0].count("double acc0 = 0.0;") == 1
        assert sources[0].count("double acc1 = 0.0;") == 1
        assert sources[0].count("double acc[bt];") == 2

    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    @pytest.mark.parametrize("family,size", [
        ("portfolio", 4), ("control", 2), ("control", 4), ("eqqp", 40),
        ("svm", 48), ("huber", 30), ("lasso", 60)])
    def test_merged_solo_solve_bitwise(self, family, size, algorithm,
                                       monkeypatch):
        from repro.hw import accelerator_class
        problem = generate(family, size, seed=0)
        sources = _loop_sources(monkeypatch)
        cust = customize_problem(problem, 8)
        res = {}
        for backend in ("interpret", "compiled"):
            acc = accelerator_class(algorithm)(
                problem, customization=cust, backend=backend)
            res[backend] = (acc.run(), acc.machine.stats)
        ri, si = res["interpret"]
        rc, sc = res["compiled"]
        for name in ("x", "y", "z"):
            assert getattr(ri, name).tobytes() == getattr(rc, name).tobytes()
        assert ri.admm_iterations == rc.admm_iterations
        assert ri.pcg_iterations == rc.pcg_iterations
        assert ri.restarts == rc.restarts
        assert ri.total_cycles == rc.total_cycles
        assert si.by_class == sc.by_class
        assert si.instructions_executed == sc.instructions_executed
        assert si.loop_iterations == sc.loop_iterations
        if sources and algorithm == "pdqp":
            # PDQP's termination norms run as two triples
            assert any(s.count("acc2 += a2[i] * b2[i];") == 2
                       for s in sources)


class TestOneLaneMachine:
    """A solo accelerator's compiled machine is one batch lane.

    Host code reaches it through the interpreter's accessors, a
    resident machine is refreshed and re-armed in place, and every run
    must still be the one a freshly bound accelerator makes."""

    CASES = {"admm": ("eqqp", 16), "pdqp": ("control", 2)}

    def _bound(self, algorithm):
        from repro.hw import accelerator_class
        from repro.problems import perturb_numeric
        family, size = self.CASES[algorithm]
        problem = generate(family, size, seed=0)
        cust = customize_problem(problem, 8)
        cls = accelerator_class(algorithm)

        def bind(prob, **arm):
            return cls(prob, customization=cust, **arm)
        return bind, problem, perturb_numeric(problem, seed=1)

    @pytest.mark.parametrize("backend", ["compiled", "interpret"])
    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    def test_refresh_then_run_equals_fresh_bind(self, algorithm, backend):
        bind, problem, nearby = self._bound(algorithm)
        acc = bind(problem, backend=backend)
        acc.run()
        acc.refresh(nearby)
        got = acc.run()
        fresh = bind(nearby, backend=backend)
        want = fresh.run()
        assert got.x.tobytes() == want.x.tobytes()
        assert got.admm_iterations == want.admm_iterations
        assert got.total_cycles == want.total_cycles
        assert got.stats.by_class == want.stats.by_class
        assert got.stats.loop_iterations == want.stats.loop_iterations
        if backend == "compiled":
            lanes = acc.machine.lane_loop_iterations
            assert lanes.keys() == fresh.machine.lane_loop_iterations.keys()
            for name, trips in fresh.machine.lane_loop_iterations.items():
                assert np.array_equal(lanes[name], trips), name

    @pytest.mark.parametrize("resident", [False, True],
                             ids=["fresh", "after-fusion"])
    def test_rollback_matches_interpreter(self, resident):
        from repro.faults import Fault, FaultInjector
        # An exponent-bit flip in an early HBM load: the state goes
        # non-finite within one segment and the driver rolls back.
        violent = [Fault(kind="hbm-read", op_index=2, element=1, bit=62)]
        bind, problem, nearby = self._bound("admm")
        if resident:
            acc = bind(problem)
            acc.run()
            if cjit.available():
                assert any(entry[1] for entry in
                           acc._card.executor._loop_fused.values())
            acc.refresh(nearby)
            acc.fault_injector = FaultInjector(violent)
        else:
            acc = bind(nearby, fault_injector=FaultInjector(violent))
        with np.errstate(all="ignore"):
            got = acc.run()
            want = bind(nearby, backend="interpret",
                        fault_injector=FaultInjector(violent)).run()
        assert got.rollbacks >= 1 and got.rollbacks == want.rollbacks
        assert got.fault_events == want.fault_events
        assert got.x.tobytes() == want.x.tobytes()
        assert got.total_cycles == want.total_cycles
        # Disarmed, the fused loops run on the restored registers.
        acc.fault_injector = None
        acc.refresh(nearby)
        clean = acc.run()
        assert clean.x.tobytes() == bind(nearby).run().x.tobytes()

    def test_rearmed_resident_fires_hooks_as_fresh_machines(self):
        from repro.faults import Fault, FaultInjector
        plans = [[Fault(kind="mac-flip", op_index=3, element=2, bit=20)],
                 None,
                 [Fault(kind="cvb-read", op_index=5, element=0, bit=30),
                  Fault(kind="hbm-read", op_index=1, element=3, bit=25)]]
        bind, problem, _nearby = self._bound("admm")
        resident = bind(problem)
        resident.run()
        for faults in plans:
            injector = None if faults is None else FaultInjector(faults)
            resident.refresh(problem)
            resident.fault_injector = injector
            got = resident.run()
            want = bind(problem, fault_injector=None if faults is None
                        else FaultInjector(faults)).run()
            assert got.fault_events == want.fault_events
            assert len(got.fault_events) == (0 if faults is None
                                             else len(faults))
            assert got.x.tobytes() == want.x.tobytes()
            assert got.total_cycles == want.total_cycles
            assert got.rollbacks == want.rollbacks

    def test_write_set_walked_once_per_program(self, monkeypatch):
        import repro.hw.batched as batched
        walks = []
        walk = batched._collect_writes

        def counted(items, writes):
            walks.append(len(items))
            walk(items, writes)

        monkeypatch.setattr(batched, "_collect_writes", counted)
        program = Program([ScalarOp(ScalarOpKind.MOV, "d", "s"),
                           Loop([ScalarOp(ScalarOpKind.ADD, "d", "d", "s"),
                                 Control("d", "s")], max_iter=3,
                                name="l")])
        machine = BatchMachine(4, {}, 2)
        machine.set_scalar("s", 1.0)
        executor = BatchExecutor(machine, jit=False)
        mask = np.array([True, False])
        executor.run(program, mask)
        assert walks
        walks.clear()
        executor.run(program, mask)
        assert walks == []


@needs_jit
class TestBatchLoopFusion:
    """Batched whole-loop fusion vs the batched node path.

    The fused tier masks writes instead of snapshotting frozen lanes;
    it must leave every lane, every per-lane trip counter and every
    wall statistic exactly where the node path (``jit=False``) does.
    """

    def _run(self, probs, cust, settings, algorithm, compiled, jit):
        from repro.batch import BatchAccelerator
        accel = BatchAccelerator(probs, cust, settings, compiled=compiled,
                                 algorithm=algorithm)
        if not jit:
            accel.executor = BatchExecutor(accel.machine, jit=False)
        return accel, accel.run()

    @pytest.mark.parametrize("family,size,batch,algorithm", [
        ("eqqp", 16, 2, "admm"), ("eqqp", 16, 8, "admm"),
        ("eqqp", 16, 32, "admm"), ("control", 4, 8, "admm"),
        ("control", 4, 8, "pdqp"),
    ])
    def test_fused_matches_node_path(self, family, size, batch, algorithm):
        from repro.hw import accelerator_class
        from repro.problems import perturb_numeric
        from repro.solver import OSQPSettings
        from repro.solver.algorithms import get_algorithm
        template = generate(family, size, seed=0)
        probs = [template] + [perturb_numeric(template, seed=s)
                              for s in range(1, batch)]
        cust = customize_problem(probs[0], 8)
        settings = get_algorithm(algorithm).coerce_settings(OSQPSettings())
        compiled = accelerator_class(algorithm)(
            probs[0], customization=cust, settings=settings,
            backend="compiled").compiled
        fused, fres = self._run(probs, cust, settings, algorithm, compiled,
                                jit=True)
        node, nres = self._run(probs, cust, settings, algorithm, compiled,
                               jit=False)
        assert any(entry[1] for entry in fused.executor._loop_fused.values())
        assert not node.executor._loop_fused
        for fr, nr in zip(fres.results, nres.results):
            assert fr.x.tobytes() == nr.x.tobytes()
            assert fr.y.tobytes() == nr.y.tobytes()
            assert fr.z.tobytes() == nr.z.tobytes()
        f_lanes = fused.machine.lane_loop_iterations
        n_lanes = node.machine.lane_loop_iterations
        assert f_lanes.keys() == n_lanes.keys()
        for name in n_lanes:
            assert np.array_equal(f_lanes[name], n_lanes[name])
        fs, ns = fused.machine.stats, node.machine.stats
        assert fs.total_cycles == ns.total_cycles
        assert fs.by_class == ns.by_class
        assert fs.instructions_executed == ns.instructions_executed
        assert fs.loop_iterations == ns.loop_iterations


@needs_jit
class TestLaneWidthUnits:
    """Every fused loop is compiled at its machine's width: the lane
    count is a literal of the unit's source, so two widths of one
    structure are two modules and a repeated width loads its own."""

    def _units(self, probs, monkeypatch):
        """``(module names, EffectIR digests)`` of the loop units one
        batched run of ``probs`` builds."""
        from repro.batch import BatchAccelerator
        from repro.solver import OSQPSettings
        from repro.verify import codegen as cg
        names, digests = set(), set()
        compile_module = cjit.compile_module
        verify = cg.ensure_codegen_verified

        def compile_spy(cdef, source, tag="k", libraries=()):
            module = compile_module(cdef, source, tag=tag,
                                    libraries=libraries)
            if tag == "loop" and module is not None:
                names.add(module.__name__)
            return module

        def verify_spy(ir, instrs, machine, **kwargs):
            digests.add(ir.digest())
            return verify(ir, instrs, machine, **kwargs)

        monkeypatch.setattr(cjit, "compile_module", compile_spy)
        monkeypatch.setattr(cg, "ensure_codegen_verified", verify_spy)
        cust = customize_problem(probs[0], 8)
        compiled = RSQPAccelerator(probs[0], customization=cust,
                                   backend="compiled").compiled
        bres = BatchAccelerator(probs, cust, OSQPSettings(),
                                compiled=compiled).run()
        assert bres.lane_errors == [None] * len(probs)
        monkeypatch.undo()
        return names, digests

    @staticmethod
    def _lanes(batch, first=1):
        from repro.problems import perturb_numeric
        template = generate("eqqp", 16, seed=0)
        return [perturb_numeric(template, seed=s)
                for s in range(first, first + batch)]

    def test_two_widths_two_modules(self, monkeypatch):
        names2, digests2 = self._units(self._lanes(2), monkeypatch)
        names3, digests3 = self._units(self._lanes(3), monkeypatch)
        assert names2 and names3
        assert len(names2) == len(digests2)
        assert not names2 & names3
        assert not digests2 & digests3

    def test_loop_units_cap_complete_peeling(self, monkeypatch):
        """Loop units try gcc's peel cap first and fall back to the
        plain flag sets when a toolchain rejects it; the engine library
        never gets it."""
        calls = []

        def failing_build(cffi, cdef, source, tag, args, libs):
            calls.append((tag, tuple(args)))
            return None

        monkeypatch.setattr(cjit, "_build", failing_build)
        assert cjit.compile_module("", "", tag="loop") is None
        assert cjit.compile_module("", "", tag="engine") is None
        cap = cjit._FAMILY_ARGS["loop"]
        plain = list(cjit._COMPILE_ARGS)
        assert "max-completely-peel-times=4" in cap
        assert [args for tag, args in calls if tag == "loop"] == (
            [args + cap for args in plain] + plain)
        assert [args for tag, args in calls if tag == "engine"] == plain

    def test_repeated_width_reuses_module(self, monkeypatch):
        names, digests = self._units(self._lanes(3), monkeypatch)
        cached = set(os.listdir(cjit.module_dir()))
        again, digests_again = self._units(self._lanes(3, first=40),
                                           monkeypatch)
        assert again == names
        assert digests_again == digests
        assert set(os.listdir(cjit.module_dir())) == cached

    def test_target_key_follows_the_compiler_and_cpu(self, monkeypatch):
        """The module directory is named by the compiler's version and
        by what ``-march=native`` resolves to: another CPU's report
        gives another directory, so a shared cache directory never
        serves one host's ``-march=native`` binary to another."""
        reports = {"--version": "cc 1.0\n",
                   "--help=target": "  -march=    cooperlake\n"}

        def fake_run(argv, **kwargs):
            return subprocess.CompletedProcess(
                argv, 0, stdout=reports[argv[-1]], stderr="")

        monkeypatch.setattr(cjit.subprocess, "run", fake_run)
        monkeypatch.setenv("REPRO_JIT_CACHE", "/cache")
        keys = []
        for report in ("  -march=    cooperlake\n",
                       "  -march=    haswell\n",
                       "  -march=    cooperlake\n"):
            reports["--help=target"] = report
            monkeypatch.delitem(cjit._state, "target", raising=False)
            keys.append(cjit.module_dir())
        reports["--version"] = "cc 2.0\n"
        monkeypatch.delitem(cjit._state, "target", raising=False)
        keys.append(cjit.module_dir())
        assert keys[0] == keys[2]
        assert len({keys[0], keys[1], keys[3]}) == 3
        assert all(os.path.dirname(key) == "/cache" for key in keys)
        monkeypatch.delitem(cjit._state, "target", raising=False)

    @needs_jit
    def test_modules_live_in_the_target_directory(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        module = cjit.compile_module("int seven(void);",
                                     "int seven(void) { return 7; }")
        assert module.lib.seven() == 7
        assert os.listdir(tmp_path) == [os.path.basename(cjit.module_dir())]
        assert any(entry.startswith(module.__name__)
                   for entry in os.listdir(cjit.module_dir()))


class TestPaddedWidth:
    """A group rounded up to a compiled width: spare lanes copying lane
    0 leave every real lane and the wall accounting as the exact-width
    run has them."""

    @pytest.mark.parametrize("algorithm,family,size", [
        ("admm", "eqqp", 16), ("pdqp", "control", 4)])
    def test_spare_copies_change_nothing(self, algorithm, family, size):
        import dataclasses
        from repro.batch import BatchAccelerator
        from repro.hw import accelerator_class
        from repro.problems import perturb_numeric
        from repro.serving.pool import batch_width
        from repro.solver import OSQPSettings
        from repro.solver.algorithms import get_algorithm
        template = generate(family, size, seed=0)
        probs = [perturb_numeric(template, seed=s) for s in range(1, 6)]
        cust = customize_problem(template, 8)
        settings = get_algorithm(algorithm).coerce_settings(OSQPSettings())
        if algorithm == "pdqp":
            # Lanes rebalance omega: the host step runs on copies too.
            settings = dataclasses.replace(settings, omega_tolerance=1.5)
        compiled = accelerator_class(algorithm)(
            template, customization=cust, settings=settings,
            backend="compiled").compiled
        width = batch_width(len(probs))
        assert width == 6

        def run(problems):
            return BatchAccelerator(problems, cust, settings,
                                    compiled=compiled,
                                    algorithm=algorithm).run()

        exact = run(probs)
        full = run(probs + [probs[0]] * (width - len(probs)))
        padded = full.first(len(probs))
        assert full.batch == width and padded.batch == exact.batch
        assert padded.lane_errors == exact.lane_errors == [None] * 5
        for er, pr in zip(exact.results, padded.results):
            for name in ("x", "y", "z"):
                assert (getattr(er, name).tobytes()
                        == getattr(pr, name).tobytes())
            assert (er.converged, er.admm_iterations, er.pcg_iterations,
                    er.total_cycles, er.restarts) == (
                pr.converged, pr.admm_iterations, pr.pcg_iterations,
                pr.total_cycles, pr.restarts)
        assert padded.lane_cycles == exact.lane_cycles
        assert padded.wall_cycles == exact.wall_cycles
        assert padded.wall_stats.by_class == exact.wall_stats.by_class
        assert (padded.wall_stats.loop_iterations
                == exact.wall_stats.loop_iterations)
        assert padded.lane_utilization == exact.lane_utilization


@needs_jit
class TestFusedBatchLoopErrors:
    """DIV/SQRT traps inside the batched fused body fire per active lane.

    A zero divisor (negative radicand) in an active lane raises the
    node path's SimulationError from the fused body; the same value in
    a lane whose Control already fired this run is never observed.
    """

    OPS = {"div": (ScalarOp(ScalarOpKind.DIV, "q", "s0", "s1"), "s1", 0.0,
                   "division"),
           "sqrt": (ScalarOp(ScalarOpKind.SQRT, "q", "s0"), "s0", -1.0,
                    "sqrt")}

    def _setup(self, kind, jit):
        op, _reg, _bad, _msg = self.OPS[kind]
        # Lanes whose c < thr leave at the Control, before the op runs.
        program = Program([Loop(body=[Control("c", "thr"), op],
                                max_iter=4, name="l")])
        machine = BatchMachine(4, {}, 2)
        for name, value in (("s0", 4.0), ("s1", 2.0), ("c", 1.0),
                            ("thr", 0.0)):
            for lane in range(2):
                machine.set_scalar_lane(name, lane, value)
        executor = BatchExecutor(machine, jit=jit)
        everyone = np.ones(2, dtype=bool)
        executor.run(program, everyone)
        executor.run(program, everyone)
        if jit:
            # The second clean run went through the fused body, or this
            # test proves nothing.
            assert any(entry[1] for entry in executor._loop_fused.values())
        return program, machine, executor, everyone

    @pytest.mark.parametrize("kind", ["div", "sqrt"])
    def test_active_lane_traps(self, kind):
        _op, reg, bad, msg = self.OPS[kind]
        errors = {}
        for jit in (True, False):
            program, machine, executor, everyone = self._setup(kind, jit)
            machine.set_scalar_lane(reg, 0, bad)
            with pytest.raises(SimulationError) as exc_info:
                executor.run(program, everyone)
            errors[jit] = exc_info.value
        assert type(errors[True]) is type(errors[False])
        assert msg in str(errors[True])

    @pytest.mark.parametrize("kind", ["div", "sqrt"])
    def test_frozen_lane_never_traps(self, kind):
        _op, reg, bad, _msg = self.OPS[kind]
        results = {}
        for jit in (True, False):
            program, machine, executor, everyone = self._setup(kind, jit)
            machine.set_scalar_lane("c", 1, -1.0)  # lane 1 exits at once
            machine.set_scalar_lane(reg, 1, bad)
            executor.run(program, everyone)
            results[jit] = (machine.scalars["q"].tobytes(),
                            machine.lane_loop_iterations["l"].copy(),
                            dict(machine.stats.loop_iterations))
        assert results[True][0] == results[False][0]
        assert np.array_equal(results[True][1], results[False][1])
        assert results[True][2] == results[False][2]


class TestControlSnapshots:
    """A Control snapshots its firing lanes only when others go on."""

    def _run(self, c_values, monkeypatch):
        saved = []
        freeze = BatchExecutor._freeze_lanes

        def spy(executor, fired):
            saved.append(fired.copy())
            freeze(executor, fired)

        monkeypatch.setattr(BatchExecutor, "_freeze_lanes", spy)
        program = Program([Loop([ScalarOp(ScalarOpKind.ADD, "c", "c", -1.0),
                                 Control("c", "thr")], max_iter=5,
                                name="l")])
        machine = BatchMachine(4, {}, 2)
        for lane, value in enumerate(c_values):
            machine.set_scalar_lane("c", lane, value)
        machine.set_scalar("thr", 0.0)
        BatchExecutor(machine, jit=False).run(program)
        return saved, machine

    def test_lanes_firing_together_save_no_columns(self, monkeypatch):
        saved, machine = self._run([0.5, 0.5], monkeypatch)
        assert saved == []
        assert machine.scalars["c"].tolist() == [-0.5, -0.5]
        assert machine.lane_loop_iterations["l"].tolist() == [1, 1]

    def test_lane_firing_alone_is_snapshotted(self, monkeypatch):
        saved, machine = self._run([0.5, 2.5], monkeypatch)
        assert [fired.tolist() for fired in saved] == [[True, False]]
        # The early lane keeps its at-fire value; the late one iterates.
        assert machine.scalars["c"].tolist() == [-0.5, -0.5]
        assert machine.lane_loop_iterations["l"].tolist() == [1, 3]
